// Package sqlparse parses the T-SQL-ish dialect shared by the SQL server
// substrate and the ECA agent into an AST, and can render the AST back to
// SQL text.
//
// The dialect covers exactly what the paper's client examples and the ECA
// agent's generated code require (Figures 9-14): DDL, DML with joins and
// aggregates, triggers with inserted/deleted pseudo-tables, stored
// procedures, EXECUTE, PRINT, and batches separated by GO.
package sqlparse

import (
	"strings"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// ObjectName is a possibly-qualified object name: name, owner.name, or
// db.owner.name. Empty leading parts are preserved as "" (e.g. the Sybase
// spelling db..table).
type ObjectName struct {
	Parts []string
}

// Name returns the final (object) component.
func (o ObjectName) Name() string {
	if len(o.Parts) == 0 {
		return ""
	}
	return o.Parts[len(o.Parts)-1]
}

// Database returns the database component if fully qualified, else "".
func (o ObjectName) Database() string {
	if len(o.Parts) == 3 {
		return o.Parts[0]
	}
	return ""
}

// Owner returns the owner component if present, else "".
func (o ObjectName) Owner() string {
	if len(o.Parts) >= 2 {
		return o.Parts[len(o.Parts)-2]
	}
	return ""
}

// String renders the dotted name.
func (o ObjectName) String() string { return strings.Join(o.Parts, ".") }

// IsQualified reports whether the name has more than one component.
func (o ObjectName) IsQualified() bool { return len(o.Parts) > 1 }

// ON builds an ObjectName from parts, a convenience for tests and codegen.
func ON(parts ...string) ObjectName { return ObjectName{Parts: parts} }

// Statement is any parsed SQL statement.
type Statement interface {
	stmtNode()
	// SQL renders the statement back to executable text.
	SQL() string
}

// ColumnDef is one column in CREATE TABLE / ALTER TABLE ADD.
type ColumnDef struct {
	Name     string
	Type     sqltypes.Type
	Nullable bool
	// NullSpecified records whether the user wrote an explicit NULL / NOT
	// NULL clause (Sybase defaults to NOT NULL when omitted).
	NullSpecified bool
}

// CreateDatabase is CREATE DATABASE name.
type CreateDatabase struct{ Name string }

// UseDatabase is USE name.
type UseDatabase struct{ Name string }

// CreateTable is CREATE TABLE name (cols...).
type CreateTable struct {
	Name    ObjectName
	Columns []ColumnDef
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name ObjectName }

// AlterTableAdd is ALTER TABLE name ADD col type [null].
type AlterTableAdd struct {
	Table  ObjectName
	Column ColumnDef
}

// CreateIndex is CREATE INDEX name ON table (column): a single-column
// hash index the engine's join planner probes instead of scanning.
type CreateIndex struct {
	Name   string
	Table  ObjectName
	Column string
}

// Insert is INSERT [INTO] table [(cols)] VALUES (...)[, (...)] or
// INSERT [INTO] table [(cols)] SELECT ...
type Insert struct {
	Table   ObjectName
	Columns []string
	Values  [][]Expr
	Select  *Select
}

// SelectItem is one projection item.
type SelectItem struct {
	// Star is true for "*" or "t.*"; StarTable holds the qualifier.
	Star      bool
	StarTable ObjectName
	Expr      Expr
	Alias     string
}

// TableRef is one entry in a FROM list.
type TableRef struct {
	Name  ObjectName
	Alias string
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT statement, optionally with INTO (SELECT ... INTO t
// FROM ...), the Sybase table-creation idiom the agent's code generator
// uses for shadow tables.
type Select struct {
	Distinct bool
	Items    []SelectItem
	Into     *ObjectName
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
}

// Assignment is one SET clause in UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET a=expr, ... [WHERE ...].
type Update struct {
	Table ObjectName
	Set   []Assignment
	Where Expr
}

// Delete is DELETE [FROM] table [WHERE ...].
type Delete struct {
	Table ObjectName
	Where Expr
}

// TriggerOp is a native trigger operation.
type TriggerOp string

// The three native trigger operations.
const (
	OpInsert TriggerOp = "insert"
	OpUpdate TriggerOp = "update"
	OpDelete TriggerOp = "delete"
)

// CreateTrigger is the *native* trigger form:
// CREATE TRIGGER name ON table FOR op AS body.
// (The agent's extended event syntax is parsed by the agent, not here.)
type CreateTrigger struct {
	Name      ObjectName
	Table     ObjectName
	Operation TriggerOp
	Body      []Statement
	// RawBody preserves the original body text for catalog storage.
	RawBody string
}

// DropTrigger is DROP TRIGGER name.
type DropTrigger struct{ Name ObjectName }

// ProcParam is one stored-procedure parameter.
type ProcParam struct {
	Name string // includes the leading '@'
	Type sqltypes.Type
}

// CreateProcedure is CREATE PROCEDURE name [params] AS body.
type CreateProcedure struct {
	Name    ObjectName
	Params  []ProcParam
	Body    []Statement
	RawBody string
}

// DropProcedure is DROP PROCEDURE name.
type DropProcedure struct{ Name ObjectName }

// Execute is EXEC[UTE] proc [arg, ...].
type Execute struct {
	Proc ObjectName
	Args []Expr
}

// Print is PRINT expr.
type Print struct{ Value Expr }

// BeginTran, CommitTran and RollbackTran are the transaction statements.
type (
	// BeginTran is BEGIN TRAN[SACTION].
	BeginTran struct{}
	// CommitTran is COMMIT [TRAN[SACTION]].
	CommitTran struct{}
	// RollbackTran is ROLLBACK [TRAN[SACTION]].
	RollbackTran struct{}
)

// SelectExpr is a FROM-less SELECT used for expression evaluation, e.g.
// "select syb_sendmsg(...)" in the generated trigger code, or "select 1".
// It is represented as a Select with no FROM; no separate node is needed.

func (*CreateDatabase) stmtNode()  {}
func (*UseDatabase) stmtNode()     {}
func (*CreateTable) stmtNode()     {}
func (*DropTable) stmtNode()       {}
func (*AlterTableAdd) stmtNode()   {}
func (*CreateIndex) stmtNode()     {}
func (*Insert) stmtNode()          {}
func (*Select) stmtNode()          {}
func (*Update) stmtNode()          {}
func (*Delete) stmtNode()          {}
func (*CreateTrigger) stmtNode()   {}
func (*DropTrigger) stmtNode()     {}
func (*CreateProcedure) stmtNode() {}
func (*DropProcedure) stmtNode()   {}
func (*Execute) stmtNode()         {}
func (*Print) stmtNode()           {}
func (*BeginTran) stmtNode()       {}
func (*CommitTran) stmtNode()      {}
func (*RollbackTran) stmtNode()    {}

// Expr is any expression node.
type Expr interface {
	exprNode()
	// SQL renders the expression back to SQL text.
	SQL() string
}

// Literal is a constant value.
type Literal struct{ Value sqltypes.Value }

// ColumnRef is a possibly-qualified column reference. Qualifier may have
// up to three parts (db.owner.table), so a full reference has up to four.
type ColumnRef struct {
	Qualifier ObjectName // possibly empty
	Name      string
}

// BinaryOp enumerates binary operators.
type BinaryOp string

// Binary operators.
const (
	OpOr  BinaryOp = "or"
	OpAnd BinaryOp = "and"
	OpEq  BinaryOp = "="
	OpNe  BinaryOp = "<>"
	OpLt  BinaryOp = "<"
	OpLe  BinaryOp = "<="
	OpGt  BinaryOp = ">"
	OpGe  BinaryOp = ">="
	OpAdd BinaryOp = "+"
	OpSub BinaryOp = "-"
	OpMul BinaryOp = "*"
	OpDiv BinaryOp = "/"
	OpMod BinaryOp = "%"
	// OpLike is the LIKE operator.
	OpLike BinaryOp = "like"
)

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "not" or "-"
	E  Expr
}

// FuncCall is a function invocation; Star marks count(*).
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
}

// IsNull is "expr IS [NOT] NULL".
type IsNull struct {
	E      Expr
	Negate bool
}

// InList is "expr [NOT] IN (e1, e2, ...)".
type InList struct {
	E      Expr
	List   []Expr
	Negate bool
}

func (*Literal) exprNode()    {}
func (*ColumnRef) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*FuncCall) exprNode()   {}
func (*IsNull) exprNode()     {}
func (*InList) exprNode()     {}
