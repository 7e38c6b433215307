//go:build !linux

package e2ebench

import (
	"errors"
	"os"
	"time"
)

// The benchmark reads peak memory and daemon CPU time the Linux way;
// elsewhere these readings are unavailable.

func maxRSSMB(*os.ProcessState) float64 { return 0 }

func procCPU(int) (time.Duration, error) {
	return 0, errors.New("process CPU time is read from /proc (Linux only)")
}
