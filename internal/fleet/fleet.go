// Package fleet implements the coordinator/worker split that scales
// design-space exploration and instruction-set-extension mining beyond
// one mat2cd process. Sweeps are embarrassingly parallel — every
// variant is an independent compile+simulate keyed by content hash —
// so a coordinator partitions a job into content-hash-keyed work
// units, dispatches them over HTTP to registered workers, and merges
// the per-shard partial results into a report byte-identical to
// single-process execution of the same specification.
//
// Reliability model: dispatch is at-least-once. A unit whose worker
// dies (or whose reply is lost) is re-dispatched to another worker;
// because every unit is a pure function of its content-addressed
// payload — variant evaluation flows through the same content-keyed
// compilation cache as single-process sweeps — re-execution returns
// identical results and duplicate deliveries merge idempotently
// (first write wins, and every write agrees). Per-worker in-flight
// windows bound the blast radius of a slow worker; retries back off
// exponentially with jitter; workers shed sweep units with 503 +
// Retry-After when their bounded sweep queue is full, so sweep
// traffic can never saturate a worker's interactive /run slots.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mat2c/internal/artifact"
	"mat2c/internal/dse"
	"mat2c/internal/isx"
)

// Unit kinds.
const (
	KindDSE = "dse" // a batch of design-space-exploration variants
	KindISX = "isx" // one instruction-set-extension candidate to verify
)

// Unit is one idempotent work unit. ID is a content hash of the
// payload, so re-dispatch after a worker loss re-executes the same
// work and lands on the same compilation-cache keys.
type Unit struct {
	ID   string   `json:"id"`
	Kind string   `json:"kind"`
	DSE  *DSEUnit `json:"dse,omitempty"`
	ISX  *ISXUnit `json:"isx,omitempty"`
}

// DSEUnit is a batch of sweep variants to evaluate. Scale, Kernels,
// and EmitC mirror dse.Options (zero values select the same defaults
// the single-process engine applies).
type DSEUnit struct {
	Scale    float64      `json:"scale,omitempty"`
	Kernels  []string     `json:"kernels,omitempty"`
	EmitC    bool         `json:"emit_c,omitempty"`
	Variants []DSEVariant `json:"variants"`
}

// DSEVariant is one enumerated variant on the wire: the full derived
// processor description plus the sweep coordinates the report echoes.
// Index is the variant's position in the merged report (enumeration
// order), which is what makes merging order-identical to a
// single-process run.
type DSEVariant struct {
	Index   int             `json:"index"`
	Proc    json.RawMessage `json:"proc"`
	Groups  []string        `json:"groups,omitempty"`
	CostSet string          `json:"cost_set,omitempty"`
}

// ISXUnit is one mined-candidate verification: recompile and
// re-simulate every profiled kernel on the base processor extended
// with the candidate. Index addresses the candidate in the
// coordinator's plan.
type ISXUnit struct {
	Index     int                  `json:"index"`
	Proc      json.RawMessage      `json:"proc"`
	Candidate *isx.Candidate       `json:"candidate"`
	Profiles  []isx.ProfileSummary `json:"profiles,omitempty"`
}

// UnitResult is a worker's reply to one executed unit.
type UnitResult struct {
	ID   string             `json:"id"`
	Kind string             `json:"kind"`
	DSE  []DSEVariantResult `json:"dse,omitempty"`
	ISX  *ISXUnitResult     `json:"isx,omitempty"`
}

// DSEVariantResult is one evaluated variant, addressed back into the
// merged report by Index.
type DSEVariantResult struct {
	Index  int               `json:"index"`
	Result dse.VariantResult `json:"result"`
}

// ISXUnitResult carries one candidate's verification deltas.
type ISXUnitResult struct {
	Index  int               `json:"index"`
	Deltas []isx.KernelDelta `json:"deltas,omitempty"`
}

// RegisterRequest is the POST /fleet/register body a worker sends the
// coordinator (initially and as a heartbeat).
type RegisterRequest struct {
	// URL is the worker's advertised base URL (http://host:port).
	URL string `json:"url"`
	// Slots is the worker's sweep-unit execution bound (informational;
	// the worker enforces it itself by shedding with 503).
	Slots int `json:"slots,omitempty"`
}

// RegisterReply acknowledges a registration with the assigned worker
// id and, when the coordinator serves the fleet-shared artifact cache,
// the cache endpoint. ArtifactURL may be path-relative ("/artifact"),
// in which case the worker resolves it against the coordinator base
// URL it registered with — the coordinator need not know its own
// externally-visible address.
type RegisterReply struct {
	ID string `json:"id"`
	// ArtifactURL is the blob-protocol endpoint of the fleet's shared
	// artifact store (empty when the coordinator does not serve one).
	ArtifactURL string `json:"artifact_url,omitempty"`
}

// WorkerInfo is one GET /fleet worker entry.
type WorkerInfo struct {
	ID        string  `json:"id"`
	URL       string  `json:"url"`
	Alive     bool    `json:"alive"`
	LastSeenS float64 `json:"last_seen_seconds"`
	Inflight  int     `json:"inflight"`
	Slots     int     `json:"slots,omitempty"`
	Completed uint64  `json:"units_completed"`
	Failed    uint64  `json:"units_failed"`
}

// Status is the GET /fleet coordinator snapshot: worker health plus
// dispatch counters.
type Status struct {
	Workers         []WorkerInfo `json:"workers"`
	Alive           int          `json:"workers_alive"`
	UnitsDispatched uint64       `json:"units_dispatched"`
	UnitsCompleted  uint64       `json:"units_completed"`
	UnitsRetried    uint64       `json:"units_retried"`
	UnitsShed       uint64       `json:"units_shed"`
	UnitsAbandoned  uint64       `json:"units_abandoned"`
	InflightRPCs    int          `json:"inflight_rpcs"`
}

// WriteResult answers a unit with res: its JSON sealed with a SHA-256
// trailer (artifact.Seal), under a Content-Length covering both, so a
// reply cut short or corrupted in transit fails ReadResult instead of
// merging. It returns an error, having written nothing, when res does
// not encode.
func WriteResult(w http.ResponseWriter, res *UnitResult) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("fleet: encode unit reply: %w", err)
	}
	data = artifact.Seal(data[:0], data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	// A failed write reaches the coordinator as a reply cut short,
	// which it retries.
	w.Write(data)
	return nil
}

// ReadResult reads a unit reply written by WriteResult. A reply whose
// trailer does not match, or that is too short to carry one, wraps
// artifact.ErrCorrupt.
func ReadResult(r io.Reader) (*UnitResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fleet: read unit reply: %w", err)
	}
	payload, err := artifact.Unseal(data)
	if err != nil {
		return nil, fmt.Errorf("fleet: unit reply: %w", err)
	}
	var res UnitResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, fmt.Errorf("fleet: decode unit reply: %w", err)
	}
	return &res, nil
}

// unitID content-addresses a unit payload: two units carrying the same
// work share an ID across retries, runs, and coordinators.
func unitID(kind string, payload interface{}) (string, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("fleet: hash unit: %w", err)
	}
	sum := sha256.Sum256(data)
	return kind + "-" + hex.EncodeToString(sum[:8]), nil
}
