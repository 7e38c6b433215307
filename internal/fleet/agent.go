// The worker-side registration agent: keeps a worker enrolled with its
// coordinator for as long as it runs, and deregisters on shutdown so
// the coordinator stops dispatching to a draining worker.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mat2c/internal/clock"
)

// Agent enrolls one worker with one coordinator. Registration doubles
// as the heartbeat: the agent re-registers every HeartbeatInterval, and
// the coordinator treats a worker silent past HeartbeatTimeout as lost.
type Agent struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Self is this worker's advertised base URL, where the coordinator
	// sends POST /fleet/unit.
	Self string
	// Slots is the worker's sweep-unit execution bound (informational).
	Slots int
	// Client issues the registration calls (default: a 5s-timeout client).
	Client *http.Client
	// Logf, when set, receives registration diagnostics.
	Logf func(format string, args ...interface{})
	// OnArtifactURL, when set, is called once — on the first successful
	// registration whose reply advertises a shared artifact cache —
	// with the endpoint resolved to an absolute URL. Workers use it to
	// attach the fleet-shared remote cache tier.
	OnArtifactURL func(url string)

	artifactSeen bool
	// clock paces the heartbeats and bounds deregistration (nil: the
	// wall clock).
	clock clock.Clock
}

// deregisterBudget bounds the deregistration call on shutdown.
const deregisterBudget = 2 * time.Second

func (a *Agent) clk() clock.Clock {
	if a.clock == nil {
		return clock.Real
	}
	return a.clock
}

func (a *Agent) logf(format string, args ...interface{}) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *Agent) client() *http.Client {
	if a.Client != nil {
		return a.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

// post sends the coordinator's path this worker's RegisterRequest.
func (a *Agent) post(ctx context.Context, path string, slots int) (*http.Response, error) {
	body, _ := json.Marshal(RegisterRequest{URL: a.Self, Slots: slots})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return a.client().Do(req)
}

// RegisterOnce performs one registration round-trip and returns the
// coordinator-assigned worker id. When the reply advertises a shared
// artifact cache for the first time, the OnArtifactURL hook fires with
// the endpoint resolved to an absolute URL.
func (a *Agent) RegisterOnce(ctx context.Context) (string, error) {
	resp, err := a.post(ctx, "/fleet/register", a.Slots)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return "", fmt.Errorf("register: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var rep RegisterReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return "", err
	}
	if rep.ArtifactURL != "" && !a.artifactSeen && a.OnArtifactURL != nil {
		a.artifactSeen = true
		a.OnArtifactURL(a.resolveArtifactURL(rep.ArtifactURL))
	}
	return rep.ID, nil
}

// resolveArtifactURL makes an advertised artifact endpoint absolute:
// a path-relative advertisement ("/artifact") joins the coordinator
// base URL the agent already talks to; absolute URLs pass through.
func (a *Agent) resolveArtifactURL(adv string) string {
	if strings.HasPrefix(adv, "/") {
		return strings.TrimRight(a.Coordinator, "/") + adv
	}
	return adv
}

// deregister tells the coordinator this worker is draining. Best
// effort within deregisterBudget on the agent's clock, whatever the
// client's own timeout — the coordinator's heartbeat timeout is the
// backstop if the call is lost.
func (a *Agent) deregister() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer a.clk().AfterFunc(deregisterBudget, cancel).Stop()
	resp, err := a.post(ctx, "/fleet/deregister", 0)
	if err != nil {
		a.logf("fleet: deregister from %s failed: %v", a.Coordinator, err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
}

// Run keeps the worker registered until ctx is cancelled, then
// deregisters. Registration failures are retried on the heartbeat
// cadence (a coordinator that is briefly down loses nothing but
// freshness), so Run never returns early.
func (a *Agent) Run(ctx context.Context) error {
	registered := false
	for {
		if id, err := a.RegisterOnce(ctx); err != nil {
			if ctx.Err() == nil {
				a.logf("fleet: register with %s failed (retrying in %s): %v", a.Coordinator, HeartbeatInterval, err)
			}
		} else if !registered {
			registered = true
			a.logf("fleet: registered with %s as %s", a.Coordinator, id)
		}
		beat := make(chan struct{})
		t := a.clk().AfterFunc(HeartbeatInterval, func() { close(beat) })
		select {
		case <-ctx.Done():
			t.Stop()
			if registered {
				a.deregister()
			}
			return ctx.Err()
		case <-beat:
		}
	}
}
