package agent

import (
	"fmt"
	"strings"
	"sync"

	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// Upstream is one connection from the agent to the SQL server. The gateway
// opens one per client (pass-through), the Persistent Manager holds a
// privileged one, and the Action Handler uses one to invoke stored
// procedures — mirroring how the original used Open Client connections.
type Upstream interface {
	Exec(sql string) ([]*sqltypes.ResultSet, error)
	Close() error
}

// UpstreamDialer opens a new upstream connection authenticated as user,
// optionally positioned in a database.
type UpstreamDialer func(user, db string) (Upstream, error)

// TCPDialer connects to a SQL server (or another agent) over the wire
// protocol — the deployment the paper describes.
func TCPDialer(addr string) UpstreamDialer {
	return func(user, db string) (Upstream, error) {
		c, err := client.Connect(addr, client.Options{User: user, Database: db})
		if err != nil {
			return nil, fmt.Errorf("agent: dialing server: %w", err)
		}
		return c, nil
	}
}

// localUpstream wraps an in-process engine session; used for embedded
// deployments and for the mediation-overhead ablation benchmarks.
type localUpstream struct {
	// mu serializes the session: a deadline may Close it from another
	// goroutine while an Exec runs.
	mu   sync.Mutex
	sess *engine.Session
}

func (u *localUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sess.ExecScript(sql)
}

// Close ends the session, rolling back its open transaction.
func (u *localUpstream) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sess.Close()
}

// LocalDialer creates upstream "connections" directly on an in-process
// engine, bypassing the wire protocol.
func LocalDialer(eng *engine.Engine) UpstreamDialer {
	return func(user, db string) (Upstream, error) {
		sess, err := eng.OpenSession(user, db)
		if err != nil {
			return nil, err
		}
		return &localUpstream{sess: sess}, nil
	}
}

// execIgnoreExists runs batches, tolerating "already exists" errors — used
// for the idempotent shadow/tmp table creations the paper guards with "if
// they do not already exist".
func execIgnoreExists(up Upstream, batches []string) error {
	for _, b := range batches {
		if _, err := up.Exec(b); err != nil && !isAlreadyExists(err) {
			return err
		}
	}
	return nil
}

func isAlreadyExists(err error) bool {
	return err != nil && containsFold(err.Error(), "already exists")
}

// containsFold reports whether s contains sub, case-insensitively.
func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), strings.ToLower(sub))
}
