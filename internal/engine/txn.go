package engine

import (
	"fmt"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

// transaction tracks undo images for an explicit BEGIN TRAN. The first
// time a table is modified inside the transaction its slot array is kept
// (storage.Table.Rows: read-only, and no later mutation changes it);
// ROLLBACK restores every saved image. This gives per-session
// atomicity for DML (schema changes are not undone, matching the
// original server's behaviour for several DDL statements inside
// transactions).
type transaction struct {
	undo  map[*storage.Table][]sqltypes.Row
	order []*storage.Table
}

func (s *Session) beginTran() error {
	if s.txn != nil {
		return fmt.Errorf("transaction already in progress")
	}
	s.txn = &transaction{undo: make(map[*storage.Table][]sqltypes.Row)}
	return nil
}

// txnSaveTable records a table's pre-transaction image on first touch.
func (s *Session) txnSaveTable(t *storage.Table) {
	if s.txn == nil || t == nil {
		return
	}
	if _, ok := s.txn.undo[t]; ok {
		return
	}
	s.txn.undo[t] = t.Rows()
	s.txn.order = append(s.txn.order, t)
}

func (s *Session) commitTran() error {
	if s.txn == nil {
		return fmt.Errorf("no transaction in progress")
	}
	s.txn = nil
	return nil
}

func (s *Session) rollbackTran() error {
	if s.txn == nil {
		return fmt.Errorf("no transaction in progress")
	}
	txn := s.txn
	s.txn = nil
	for i := len(txn.order) - 1; i >= 0; i-- {
		t := txn.order[i]
		if err := t.ReplaceAll(txn.undo[t]); err != nil {
			return fmt.Errorf("rollback failed: %v", err)
		}
	}
	return nil
}

// Close ends the session. An open transaction is rolled back, as the
// original server does when a client disconnects mid-transaction.
func (s *Session) Close() error {
	if s.txn == nil {
		return nil
	}
	return s.rollbackTran()
}

// InTransaction reports whether the session has an open transaction.
func (s *Session) InTransaction() bool { return s.txn != nil }
