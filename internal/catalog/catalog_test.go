package catalog

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

func stockSchema() *sqltypes.Schema {
	return sqltypes.NewSchema(
		sqltypes.Column{Name: "symbol", Type: sqltypes.VarChar(10)},
		sqltypes.Column{Name: "price", Type: sqltypes.Float, Nullable: true},
	)
}

func TestDatabaseLifecycle(t *testing.T) {
	c := New()
	if _, err := c.Database("master"); err != nil {
		t.Fatal("master missing")
	}
	db, err := c.CreateDatabase("sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	if db.Name() != "sentineldb" {
		t.Errorf("Name = %q", db.Name())
	}
	if _, err := c.CreateDatabase("SENTINELDB"); err == nil {
		t.Error("case-insensitive duplicate db accepted")
	}
	if _, err := c.Database("sentineldb"); err != nil {
		t.Error(err)
	}
	if _, err := c.Database("nope"); err == nil {
		t.Error("missing db lookup succeeded")
	}
	if len(c.DatabaseNames()) != 2 {
		t.Errorf("DatabaseNames: %v", c.DatabaseNames())
	}
}

func TestTableOwnershipResolution(t *testing.T) {
	c := New()
	db, _ := c.CreateDatabase("d")
	if _, err := db.CreateTable("sharma", "stock", stockSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("sharma", "STOCK", stockSchema()); err == nil {
		t.Error("duplicate accepted")
	}
	// Owner-qualified lookup.
	if _, err := db.Table("sharma", "stock", "anyone"); err != nil {
		t.Error(err)
	}
	// Session user match.
	if _, err := db.Table("", "stock", "sharma"); err != nil {
		t.Error(err)
	}
	// Unique-match fallback: another user can see sharma's table when the
	// name is unambiguous.
	if _, err := db.Table("", "stock", "sa"); err != nil {
		t.Error(err)
	}
	// dbo table preferred over unique fallback.
	if _, err := db.CreateTable("", "prices", stockSchema()); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("", "prices", "whoever")
	if err != nil || tbl == nil {
		t.Error("dbo fallback failed")
	}
	// Ambiguity: two owners, no dbo, no user match -> error.
	if _, err := db.CreateTable("li", "stock", stockSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("", "stock", "sa"); err == nil {
		t.Error("ambiguous lookup should fail")
	}
	// But each owner still resolves their own.
	if _, err := db.Table("", "stock", "li"); err != nil {
		t.Error(err)
	}
}

func TestDropTableRemovesTriggers(t *testing.T) {
	c := New()
	db, _ := c.CreateDatabase("d")
	if _, err := db.CreateTable("dbo", "stock", stockSchema()); err != nil {
		t.Fatal(err)
	}
	tr := &Trigger{Name: "tg", Owner: "dbo", Table: "stock", Operation: sqlparse.OpInsert,
		RawSQL: "create trigger tg on stock for insert as print 'x'"}
	if err := db.CreateTrigger(tr, "dbo"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.TriggerFor("", "stock", "dbo", sqlparse.OpInsert); !ok {
		t.Fatal("trigger not registered")
	}
	if err := db.DropTable("", "stock", "dbo"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Trigger("", "tg", "dbo"); err == nil {
		t.Error("trigger survived table drop")
	}
	if err := db.DropTable("", "stock", "dbo"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestTriggerSilentOverwrite(t *testing.T) {
	// §2.2: "Each new trigger on a table for the same operation ...
	// overwrites the previous one. No warning message is given."
	c := New()
	db, _ := c.CreateDatabase("d")
	if _, err := db.CreateTable("dbo", "stock", stockSchema()); err != nil {
		t.Fatal(err)
	}
	t1 := &Trigger{Name: "t1", Owner: "dbo", Table: "stock", Operation: sqlparse.OpInsert,
		RawSQL: "create trigger t1 on stock for insert as print '1'"}
	t2 := &Trigger{Name: "t2", Owner: "dbo", Table: "stock", Operation: sqlparse.OpInsert,
		RawSQL: "create trigger t2 on stock for insert as print '2'"}
	if err := db.CreateTrigger(t1, "dbo"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTrigger(t2, "dbo"); err != nil {
		t.Fatalf("overwrite should be silent, got %v", err)
	}
	got, ok := db.TriggerFor("", "stock", "dbo", sqlparse.OpInsert)
	if !ok || got.Name != "t2" {
		t.Errorf("active trigger = %+v", got)
	}
	if _, err := db.Trigger("", "t1", "dbo"); err == nil {
		t.Error("overwritten trigger still resolvable by name")
	}
	// Different operation does not overwrite.
	t3 := &Trigger{Name: "t3", Owner: "dbo", Table: "stock", Operation: sqlparse.OpDelete,
		RawSQL: "create trigger t3 on stock for delete as print '3'"}
	if err := db.CreateTrigger(t3, "dbo"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.TriggerFor("", "stock", "dbo", sqlparse.OpInsert); !ok {
		t.Error("insert trigger lost")
	}
	if _, ok := db.TriggerFor("", "stock", "dbo", sqlparse.OpDelete); !ok {
		t.Error("delete trigger missing")
	}
}

func TestDropTrigger(t *testing.T) {
	c := New()
	db, _ := c.CreateDatabase("d")
	_, _ = db.CreateTable("dbo", "stock", stockSchema())
	tr := &Trigger{Name: "tg", Owner: "dbo", Table: "stock", Operation: sqlparse.OpUpdate,
		RawSQL: "create trigger tg on stock for update as print 'x'"}
	if err := db.CreateTrigger(tr, "dbo"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTrigger("", "tg", "dbo"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.TriggerFor("", "stock", "dbo", sqlparse.OpUpdate); ok {
		t.Error("trigger still fires after drop")
	}
	if err := db.DropTrigger("", "tg", "dbo"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestTriggerOnMissingTable(t *testing.T) {
	c := New()
	db, _ := c.CreateDatabase("d")
	tr := &Trigger{Name: "tg", Owner: "dbo", Table: "ghost", Operation: sqlparse.OpInsert}
	if err := db.CreateTrigger(tr, "dbo"); err == nil {
		t.Error("trigger on missing table accepted")
	}
}

func TestProcedures(t *testing.T) {
	c := New()
	db, _ := c.CreateDatabase("d")
	p := &Procedure{Name: "proc1", Owner: "sharma", RawSQL: "create procedure proc1 as print 'hi'"}
	if err := db.CreateProcedure(p); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateProcedure(p); err == nil {
		t.Error("duplicate procedure accepted")
	}
	if _, err := db.Procedure("", "proc1", "sharma"); err != nil {
		t.Error(err)
	}
	if _, err := db.Procedure("sharma", "PROC1", ""); err != nil {
		t.Error("case-insensitive proc lookup failed")
	}
	if err := db.DropProcedure("", "proc1", "sharma"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Procedure("", "proc1", "sharma"); err == nil {
		t.Error("dropped proc still resolvable")
	}
}

func TestDefaultOwnerAssignment(t *testing.T) {
	c := New()
	db, _ := c.CreateDatabase("d")
	_, _ = db.CreateTable("dbo", "t", stockSchema())
	p := &Procedure{Name: "p", RawSQL: "create procedure p as print 'x'"}
	if err := db.CreateProcedure(p); err != nil {
		t.Fatal(err)
	}
	if p.Owner != DefaultOwner {
		t.Errorf("proc owner = %q", p.Owner)
	}
	tr := &Trigger{Name: "tg", Table: "t", Operation: sqlparse.OpInsert,
		RawSQL: "create trigger tg on t for insert as print 'x'"}
	if err := db.CreateTrigger(tr, ""); err != nil {
		t.Fatal(err)
	}
	if tr.Owner != DefaultOwner {
		t.Errorf("trigger owner = %q", tr.Owner)
	}
}

func buildFullCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	db, err := c.CreateDatabase("sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("sharma", "stock", stockSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(sqltypes.Row{sqltypes.NewString("IBM"), sqltypes.NewFloat(100)}); err != nil {
		t.Fatal(err)
	}
	procSQL := "create procedure p_report as\nselect * from stock"
	stmts, err := sqlparse.ParseBatch(procSQL)
	if err != nil {
		t.Fatal(err)
	}
	cp := stmts[0].(*sqlparse.CreateProcedure)
	if err := db.CreateProcedure(&Procedure{
		Name: cp.Name.Name(), Owner: "sharma", Params: cp.Params, Body: cp.Body, RawSQL: procSQL,
	}); err != nil {
		t.Fatal(err)
	}
	trigSQL := "create trigger t_addStk on stock for insert as\nprint 'fired'"
	stmts, err = sqlparse.ParseBatch(trigSQL)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmts[0].(*sqlparse.CreateTrigger)
	if err := db.CreateTrigger(&Trigger{
		Name: ct.Name.Name(), Owner: "sharma", Table: ct.Table.Name(),
		Operation: ct.Operation, Body: ct.Body, RawSQL: trigSQL,
	}, "sharma"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := buildFullCatalog(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	db, err := c2.Database("sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("sharma", "stock", "")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("rows lost: %d", tbl.Len())
	}
	p, err := db.Procedure("", "p_report", "sharma")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Body) != 1 {
		t.Errorf("proc body: %d statements", len(p.Body))
	}
	tr, ok := db.TriggerFor("", "stock", "sharma", sqlparse.OpInsert)
	if !ok || tr.Name != "t_addStk" {
		t.Errorf("trigger after load: %+v ok=%v", tr, ok)
	}
	if _, err := c2.Database("master"); err != nil {
		t.Error("master should always exist after load")
	}
}

func TestSaveLoadFile(t *testing.T) {
	c := buildFullCatalog(t)
	path := filepath.Join(t.TempDir(), "snap.db")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := c2.Database("sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.TableNames()); got != 1 {
		t.Errorf("tables after load: %d", got)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.db")); err == nil {
		t.Error("loading missing file succeeded")
	}
}

func TestLoadCorruptSnapshot(t *testing.T) {
	c := buildFullCatalog(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("garbage!"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestSaveLoadIndexes: index declarations survive a snapshot and the key
// maps are rebuilt from the loaded rows; DROP TABLE takes them along.
func TestSaveLoadIndexes(t *testing.T) {
	c := buildFullCatalog(t)
	db, _ := c.Database("sentineldb")
	tbl, err := db.Table("sharma", "stock", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("stock_symbol", "SYMBOL"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("stock_price", "price"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	db2, _ := c2.Database("sentineldb")
	tbl2, err := db2.Table("sharma", "stock", "")
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.IndexDef{{Name: "stock_symbol", Column: "symbol"}, {Name: "stock_price", Column: "price"}}
	if got := tbl2.Indexes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("indexes after load: %+v, want %+v", got, want)
	}
	rows, _, ok := tbl2.Pin().Lookup(0, sqltypes.NewString("IBM"))
	if !ok || len(rows) != 1 {
		t.Errorf("rebuilt index lookup: %v ok=%v", rows, ok)
	}

	if err := db2.DropTable("sharma", "stock", ""); err != nil {
		t.Fatal(err)
	}
	recreated, err := db2.CreateTable("sharma", "stock", stockSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got := recreated.Indexes(); len(got) != 0 {
		t.Errorf("indexes outlived DROP TABLE: %+v", got)
	}
}

// TestSaveDuringSchemaChurn: a checkpoint taken while sessions create,
// alter, index and drop tables always loads. Every index declaration in a
// snapshot names a table and a column the same snapshot holds.
func TestSaveDuringSchemaChurn(t *testing.T) {
	c := buildFullCatalog(t)
	db, _ := c.Database("sentineldb")
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tbl, err := db.CreateTable("sharma", "churn", stockSchema())
			if err != nil {
				done <- err
				return
			}
			if err := tbl.AddColumn(sqltypes.Column{Name: "extra", Type: sqltypes.Int, Nullable: true}); err != nil {
				done <- err
				return
			}
			if err := tbl.CreateIndex("churn_extra", "extra"); err != nil {
				done <- err
				return
			}
			if err := db.DropTable("sharma", "churn", ""); err != nil {
				done <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 500; i++ {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("snapshot %d does not load: %v", i, err)
		}
	}
}

// TestLoadSnapshotBeforeIndexes pins compatibility: a snapshot written by
// the encoder that predates index declarations (bytes committed under
// testdata) loads completely, with no indexes.
func TestLoadSnapshotBeforeIndexes(t *testing.T) {
	c, err := LoadFile(filepath.Join("testdata", "snapshot_pre_index.ecasnap"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.Database("sentineldb")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("sharma", "stock", "")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || len(tbl.Indexes()) != 0 {
		t.Errorf("old snapshot: %d rows, indexes %+v", tbl.Len(), tbl.Indexes())
	}
	if _, err := db.Procedure("", "p_report", "sharma"); err != nil {
		t.Error(err)
	}
	if tr, ok := db.TriggerFor("", "stock", "sharma", sqlparse.OpInsert); !ok || tr.Name != "t_addStk" {
		t.Errorf("trigger after load: %+v ok=%v", tr, ok)
	}
}
