package cluster

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// Execer is the slice of a SQL connection the authority needs — both
// client.Conn and agent.Upstream satisfy it, so the epoch register can
// live in the same sqlserverd the agent fronts (the ZooKeeper role,
// played by the one durable shared system the deployment already has).
type Execer interface {
	Exec(sql string) ([]*sqltypes.ResultSet, error)
}

// SQLAuthorityConfig configures a SQLAuthority.
type SQLAuthorityConfig struct {
	// Exec runs statements on the shared SQL server (required).
	Exec Execer
	// Node names this node in the epoch row's holder column.
	Node string
	// Clock drives lease expiry and renewal (default the system clock;
	// tests drive a ManualClock).
	Clock led.Clock
	// LeaseTTL is how long a grant stays valid without renewal (default
	// 5s). A partitioned holder whose lease lapses self-fences: Validate
	// fails locally even before the new primary's CAS lands.
	LeaseTTL time.Duration
	// RenewEvery is the renewal cadence (default LeaseTTL/3).
	RenewEvery time.Duration
	// Logf receives lease-loss and renewal-failure reports (default
	// discards).
	Logf func(format string, args ...any)
	// Met counts renewals and losses. May be nil.
	Met *Metrics
}

// authorityDB is the database holding the epoch table.
const authorityDB = "ecacluster"

func (c SQLAuthorityConfig) withDefaults() SQLAuthorityConfig {
	if c.Clock == nil {
		c.Clock = led.SystemClock()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Second
	}
	if c.RenewEvery <= 0 {
		c.RenewEvery = c.LeaseTTL / 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SQLAuthority implements Authority over an epoch row in the shared SQL
// server: `syseca_epoch(epoch, holder, expires)`, exactly one row.
// Acquire is a compare-and-swap on the epoch column (`update ... where
// epoch = <read value>`; RowsAffected tells who won a race), so promotion
// fences the old primary across machines, not just in-process. Validate
// is purely local — it checks the granted epoch and its lease expiry on
// the Clock seam — because it runs on every guarded upstream execution
// and must not add a network round trip to the action path; the lease is
// what makes the local check sound (a partitioned holder's Validate
// starts failing once the lease it can no longer renew lapses).
type SQLAuthority struct {
	cfg SQLAuthorityConfig

	mu      sync.Mutex
	epoch   uint64    // granted epoch; 0 before Acquire; guarded by mu
	expires time.Time // local lease deadline; guarded by mu
	lost    bool      // lease superseded or renewal declared it dead; guarded by mu
	closed  bool      // guarded by mu
	cancel  func()    // pending renewal timer; guarded by mu
}

// NewSQLAuthority connects the authority to the epoch table, creating the
// database, table, and seed row when absent. Concurrent bootstrap from
// two nodes is safe: creation races lose with "already exists" (ignored)
// and the seed insert is guarded by a re-read, so at worst the loser's
// Acquire CAS simply retries.
func NewSQLAuthority(cfg SQLAuthorityConfig) (*SQLAuthority, error) {
	a := &SQLAuthority{cfg: cfg.withDefaults()}
	if a.cfg.Exec == nil {
		return nil, fmt.Errorf("cluster: SQLAuthority requires an Execer")
	}
	if err := a.bootstrap(); err != nil {
		return nil, err
	}
	return a, nil
}

// exec runs sql inside the authority database.
func (a *SQLAuthority) exec(sql string) ([]*sqltypes.ResultSet, error) {
	return a.cfg.Exec.Exec("use " + authorityDB + "\n" + sql) //ecavet:allow fencedwrite the authority's own epoch row is the fence's ground truth and cannot validate against itself
}

// execIgnoreExists swallows catalog duplicate errors, the expected
// outcome when two nodes bootstrap concurrently.
func (a *SQLAuthority) execIgnoreExists(sql string) error {
	if _, err := a.cfg.Exec.Exec(sql); err != nil { //ecavet:allow fencedwrite bootstrap DDL runs before any epoch exists to validate
		if strings.Contains(err.Error(), "already exists") {
			return nil
		}
		return err
	}
	return nil
}

func (a *SQLAuthority) bootstrap() error {
	if err := a.execIgnoreExists("create database " + authorityDB); err != nil {
		return fmt.Errorf("cluster: creating authority database: %w", err)
	}
	if err := a.execIgnoreExists("use " + authorityDB +
		"\ncreate table syseca_epoch (epoch int null, holder varchar(64) null, expires int null)"); err != nil {
		return fmt.Errorf("cluster: creating epoch table: %w", err)
	}
	row, err := a.readRow()
	if err != nil {
		return err
	}
	if row != nil {
		return nil
	}
	// Two nodes can both see the empty table and both insert; the re-read
	// inside Acquire's CAS loop tolerates the duplicate by always CASing
	// against the max epoch, but avoid it when we can: re-check after a
	// losing insert is impossible here, so just insert — the table was
	// created by whoever got the row in first and duplicate seed rows with
	// epoch 0 are collapsed by the first successful Acquire's update
	// matching `where epoch = 0` on every copy.
	if _, err := a.exec("insert syseca_epoch values (0, '', 0)"); err != nil {
		return fmt.Errorf("cluster: seeding epoch row: %w", err)
	}
	return nil
}

// readRow returns the current epoch row (nil when the table is empty).
// With duplicate seed rows (bootstrap race) the max epoch wins.
func (a *SQLAuthority) readRow() (*epochRow, error) {
	results, err := a.exec("select epoch, holder, expires from syseca_epoch")
	if err != nil {
		return nil, fmt.Errorf("cluster: reading epoch row: %w", err)
	}
	var best *epochRow
	for _, rs := range results {
		if rs.Schema == nil || rs.Schema.Len() < 3 {
			continue
		}
		for _, r := range rs.Rows {
			if len(r) < 3 {
				continue
			}
			e, _ := r[0].AsInt()
			exp, _ := r[2].AsInt()
			row := &epochRow{epoch: uint64(e), holder: r[1].AsString(), expires: exp}
			if best == nil || row.epoch > best.epoch {
				best = row
			}
		}
	}
	return best, nil
}

type epochRow struct {
	epoch   uint64
	holder  string
	expires int64
}

// rowsAffected sums the DML counts across a response.
func rowsAffected(results []*sqltypes.ResultSet) int {
	n := 0
	for _, rs := range results {
		n += rs.RowsAffected
	}
	return n
}

// sqlQuote escapes a string literal for the engine's single-quote syntax.
func sqlQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// Acquire CASes the epoch row forward and starts the renewal loop. It is
// called once per promotion; losing a CAS race (another node promoted in
// the same window) retries against the new value, so the returned epoch
// is always strictly greater than any granted before.
func (a *SQLAuthority) Acquire(node string) (uint64, error) {
	for attempt := 0; attempt < 8; attempt++ {
		row, err := a.readRow()
		if err != nil {
			return 0, err
		}
		if row == nil {
			return 0, fmt.Errorf("cluster: epoch row missing (authority not bootstrapped)")
		}
		next := row.epoch + 1
		now := a.cfg.Clock.Now()
		expires := now.Add(a.cfg.LeaseTTL)
		results, err := a.exec(fmt.Sprintf(
			"update syseca_epoch set epoch = %d, holder = %s, expires = %d where epoch = %d",
			next, sqlQuote(node), expires.UnixNano(), row.epoch))
		if err != nil {
			return 0, fmt.Errorf("cluster: epoch CAS: %w", err)
		}
		if rowsAffected(results) == 0 {
			continue // lost the race; re-read and go again
		}
		a.mu.Lock()
		a.epoch = next
		a.expires = expires
		a.lost = false
		a.scheduleRenewLocked()
		a.mu.Unlock()
		return next, nil
	}
	return 0, fmt.Errorf("cluster: epoch CAS kept losing; another node is promoting")
}

// scheduleRenewLocked arms the next renewal. Caller holds a.mu.
func (a *SQLAuthority) scheduleRenewLocked() {
	if a.cancel != nil {
		a.cancel()
	}
	if a.closed || a.lost {
		a.cancel = nil
		return
	}
	a.cancel = a.cfg.Clock.AfterFunc(a.cfg.RenewEvery, a.renew)
}

// renew extends the lease via a CAS on our own epoch. A CAS that matches
// zero rows means a later epoch exists — we were superseded — and the
// authority latches lost. An unreachable server keeps the old expiry:
// the lease simply runs out and Validate starts failing, which is the
// partitioned-zombie self-fence the failover suite exercises.
func (a *SQLAuthority) renew() {
	a.mu.Lock()
	if a.closed || a.lost || a.epoch == 0 {
		a.mu.Unlock()
		return
	}
	epoch := a.epoch
	a.mu.Unlock()

	expires := a.cfg.Clock.Now().Add(a.cfg.LeaseTTL)
	results, err := a.exec(fmt.Sprintf(
		"update syseca_epoch set expires = %d where epoch = %d", expires.UnixNano(), epoch))

	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case err != nil:
		if a.cfg.Met != nil {
			a.cfg.Met.AuthRenewFailed.Inc()
		}
		a.cfg.Logf("cluster: epoch lease renewal failed (epoch %d): %v; lease expires %v", epoch, err, a.expires)
	case rowsAffected(results) == 0:
		a.lost = true
		if a.cfg.Met != nil {
			a.cfg.Met.AuthRenewFailed.Inc()
			a.cfg.Met.AuthLeaseLost.Inc()
		}
		a.cfg.Logf("cluster: epoch %d SUPERSEDED in the SQL register; this node is fenced", epoch)
	default:
		a.expires = expires
		if a.cfg.Met != nil {
			a.cfg.Met.AuthRenewals.Inc()
		}
	}
	a.scheduleRenewLocked()
}

// Validate reports whether epoch is still this node's live grant. Purely
// local: epoch must match the grant, the grant must not have been
// superseded, and the lease must not have lapsed on the Clock seam.
func (a *SQLAuthority) Validate(epoch uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lost {
		return fmt.Errorf("%w (epoch %d superseded in SQL register)", ErrFenced, epoch)
	}
	if epoch == 0 || epoch != a.epoch {
		return fmt.Errorf("%w (held %d, granted %d)", ErrFenced, epoch, a.epoch)
	}
	if !a.cfg.Clock.Now().Before(a.expires) {
		return fmt.Errorf("%w (epoch %d lease expired %v)", ErrFenced, epoch, a.expires)
	}
	return nil
}

// Current reads the live row from the SQL register, falling back to the
// local grant when the server is unreachable.
func (a *SQLAuthority) Current() (node string, epoch uint64) {
	if row, err := a.readRow(); err == nil && row != nil {
		return row.holder, row.epoch
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.Node, a.epoch
}

// Lost reports whether this node's grant was superseded.
func (a *SQLAuthority) Lost() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lost
}

// Close stops the renewal loop.
func (a *SQLAuthority) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	if a.cancel != nil {
		a.cancel()
		a.cancel = nil
	}
	return nil
}
