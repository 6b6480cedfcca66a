package agent

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// RetryConfig tunes the resilient decorator wrapped around the agent's own
// upstream connections (Persistent Manager, Action Handler, recovery
// sweep). Client pass-through connections are NOT retried: replaying a
// client's batch without the client's knowledge would break transaction
// transparency.
type RetryConfig struct {
	// MaxAttempts bounds tries per Exec, including the first (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff; it doubles per retry (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// AttemptTimeout aborts a single attempt that hangs by closing its
	// connection (0 disables the deadline).
	AttemptTimeout time.Duration
}

// retrySeed seeds every connection's backoff jitter, so a retry schedule
// is the same on every run.
const retrySeed = 1

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 25 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Second
	}
	return c
}

// errAttemptTimeout marks an attempt aborted by the per-attempt deadline.
var errAttemptTimeout = errors.New("agent: upstream attempt deadline exceeded")

// retryableError classifies an Exec failure: connection-level failures are
// retryable on a fresh connection; an answer from the server — even an
// error answer — is terminal, because the server already processed the
// batch and retrying would execute the action twice.
func retryableError(err error) bool {
	if err == nil {
		return false
	}
	var se *tds.ServerError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, errAttemptTimeout) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// retryUpstream decorates an Upstream with reconnect-on-failure,
// exponential backoff with jitter, per-attempt deadlines and
// retryable-vs-terminal error classification — the piece that keeps one
// broken Open Client connection from disabling every rule action.
type retryUpstream struct {
	dial        func() (Upstream, error)
	cfg         RetryConfig
	onRetry     func()
	onReconnect func()
	logf        func(format string, args ...any)

	// execMu serializes Exec calls (each handler owns one logical
	// connection, as in the paper's one-connection-per-module design).
	execMu sync.Mutex
	rng    *rand.Rand

	// connMu guards the live connection separately from execMu so Close
	// can reach a connection whose Exec is blocked.
	connMu sync.Mutex
	up     Upstream
	dialed bool
	closed bool
}

func newRetryUpstream(dial func() (Upstream, error), cfg RetryConfig, logf func(string, ...any), onRetry, onReconnect func()) *retryUpstream {
	cfg = cfg.withDefaults()
	return &retryUpstream{
		dial:        dial,
		cfg:         cfg,
		onRetry:     onRetry,
		onReconnect: onReconnect,
		logf:        logf,
		rng:         rand.New(rand.NewSource(retrySeed)),
	}
}

// conn returns the live connection, dialing a fresh one if needed.
func (r *retryUpstream) conn() (Upstream, error) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.closed {
		return nil, net.ErrClosed
	}
	if r.up != nil {
		return r.up, nil
	}
	up, err := r.dial()
	if err != nil {
		return nil, err
	}
	r.up = up
	if r.dialed {
		if r.onReconnect != nil {
			r.onReconnect()
		}
		if r.logf != nil {
			r.logf("agent: upstream reconnected")
		}
	}
	r.dialed = true
	return up, nil
}

// dropConn discards a connection observed failing (if still current).
func (r *retryUpstream) dropConn(up Upstream) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.up == up && up != nil {
		up.Close()
		r.up = nil
	}
}

// Exec runs one batch with retries. Terminal errors (the server answered)
// return immediately; connection failures reconnect and retry with
// exponential backoff until MaxAttempts is exhausted.
func (r *retryUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	r.execMu.Lock()
	defer r.execMu.Unlock()
	return r.exec(sql, 0, nil)
}

// pipeliner is the optional method of a live connection that sends
// several scripts before it reads their responses (client.Conn).
type pipeliner interface {
	Pipeline(scripts []string, reply func(i int, results []*sqltypes.ResultSet, err error)) (int, error)
}

// ExecGroup runs the scripts in order and calls reply once per script, in
// order, with what Exec would have returned for it. When the live
// connection pipelines, the scripts go out together and the per-attempt
// deadline covers the group, restarting at every reply, so no script gets
// less time than Exec gives it. A server error is final for its script
// alone. A transport error after j replies leaves replies 0..j-1 final
// and counts as script j's first attempt; scripts j.. then run one at a
// time through Exec's ladder. The server may already have run some of
// them, so each can run twice. Any other connection runs every script
// through that ladder.
func (r *retryUpstream) ExecGroup(scripts []string, reply func(i int, results []*sqltypes.ResultSet, err error)) {
	r.execMu.Lock()
	defer r.execMu.Unlock()
	done, tried, lastErr := 0, 0, error(nil)
	if up, err := r.conn(); err == nil {
		if p, ok := up.(pipeliner); ok {
			done, lastErr = r.pipelineAttempt(up, p, scripts, reply)
			if lastErr != nil {
				r.dropConn(up)
				tried = 1
				if !retryableError(lastErr) {
					// Not the connection's failure (a script that cannot
					// be framed, a reply that does not decode): final for
					// its script, as in Exec.
					reply(done, nil, lastErr)
					done, tried, lastErr = done+1, 0, nil
				}
			}
		}
	}
	for i := done; i < len(scripts); i++ {
		results, err := r.exec(scripts[i], tried, lastErr)
		reply(i, results, err)
		tried, lastErr = 0, nil
	}
}

// pipelineAttempt is one pipelined try. The deadline is stopped while
// reply runs and restarted before the next read.
func (r *retryUpstream) pipelineAttempt(up Upstream, p pipeliner, scripts []string, reply func(int, []*sqltypes.ResultSet, error)) (int, error) {
	deadline := r.startDeadline(up)
	if deadline == nil {
		return p.Pipeline(scripts, reply)
	}
	n, err := p.Pipeline(scripts, func(i int, results []*sqltypes.ResultSet, err error) {
		deadline.Stop()
		reply(i, results, err)
		deadline.Reset(r.cfg.AttemptTimeout)
	})
	if !deadline.Stop() {
		r.dropConn(up) // the deadline closed it
		if err != nil {
			err = fmt.Errorf("%w (%v)", errAttemptTimeout, r.cfg.AttemptTimeout)
		}
	}
	return n, err
}

// exec is Exec's retry ladder for a script already tried the given
// number of times, the last failing with lastErr; the caller holds execMu.
func (r *retryUpstream) exec(sql string, tried int, lastErr error) ([]*sqltypes.ResultSet, error) {
	for attempt := tried; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if r.onRetry != nil {
				r.onRetry()
			}
			//ecavet:allow nowallclock reconnect backoff is operational wall-clock
			time.Sleep(r.backoff(attempt))
		}
		up, err := r.conn()
		if err != nil {
			if errors.Is(err, net.ErrClosed) && r.isClosed() {
				return nil, err
			}
			lastErr = err
			continue
		}
		results, err := r.execAttempt(up, sql)
		if err == nil || !retryableError(err) {
			return results, err
		}
		lastErr = err
		r.dropConn(up)
		if r.isClosed() {
			break
		}
	}
	return nil, fmt.Errorf("agent: upstream failed after %d attempts: %w", r.cfg.MaxAttempts, lastErr)
}

// execAttempt runs one try, bounded by the per-attempt deadline.
func (r *retryUpstream) execAttempt(up Upstream, sql string) ([]*sqltypes.ResultSet, error) {
	deadline := r.startDeadline(up)
	results, err := up.Exec(sql)
	if deadline != nil && !deadline.Stop() {
		r.dropConn(up) // the deadline closed it
		if err != nil {
			return nil, fmt.Errorf("%w (%v)", errAttemptTimeout, r.cfg.AttemptTimeout)
		}
	}
	return results, err
}

// startDeadline arms the per-attempt deadline on up, or returns nil when
// there is none. When it fires it closes the connection, which fails the
// call in progress — the only abort an Open Client style blocking API
// offers.
func (r *retryUpstream) startDeadline(up Upstream) *time.Timer {
	if r.cfg.AttemptTimeout <= 0 {
		return nil
	}
	//ecavet:allow nowallclock per-attempt upstream deadline is operational wall-clock
	return time.AfterFunc(r.cfg.AttemptTimeout, func() { up.Close() })
}

// backoff returns the jittered exponential delay before the given attempt
// (attempt ≥ 1): the n-th retry waits in [d/2, d] with d = base·2^(n-1)
// capped at MaxDelay.
func (r *retryUpstream) backoff(attempt int) time.Duration {
	d := r.cfg.BaseDelay << uint(attempt-1)
	if d <= 0 || d > r.cfg.MaxDelay {
		d = r.cfg.MaxDelay
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(r.rng.Int63n(int64(half)+1))
}

func (r *retryUpstream) isClosed() bool {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	return r.closed
}

// Close shuts the decorator down, unblocking any hung attempt by closing
// the live connection out from under it.
func (r *retryUpstream) Close() error {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	r.closed = true
	if r.up != nil {
		r.up.Close()
		r.up = nil
	}
	return nil
}
