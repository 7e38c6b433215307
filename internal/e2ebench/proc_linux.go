package e2ebench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxRSSMB returns a finished process's peak resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat
// (USER_HZ, fixed at 100 on Linux).
const clockTicks = 100

// procCPU returns a running process's user+system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it are
	// space-separated, utime and stime being fields 14 and 15.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}
