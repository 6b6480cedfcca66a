package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/activedb/ecaagent/internal/sqllex"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// reserved lists keywords that cannot be used as bare aliases, so that the
// parser can detect statement boundaries inside unterminated batches.
var reserved = map[string]bool{
	"select": true, "insert": true, "update": true, "delete": true,
	"print": true, "execute": true, "exec": true, "create": true,
	"drop": true, "alter": true, "use": true, "begin": true,
	"commit": true, "rollback": true, "from": true, "where": true,
	"group": true, "order": true, "having": true, "into": true,
	"values": true, "set": true, "on": true, "for": true, "as": true,
	"and": true, "or": true, "not": true, "like": true, "in": true,
	"is": true, "null": true, "desc": true, "asc": true, "union": true,
	"go": true, "tran": true, "transaction": true, "by": true,
	"table": true, "trigger": true, "procedure": true, "proc": true,
	"database": true, "add": true, "distinct": true, "event": true,
	"grant": true, "waitfor": true,
}

func isReserved(word string) bool { return reserved[strings.ToLower(word)] }

// NextBatch cuts the first batch off a SQL script. Batches end at lines
// consisting solely of the word GO (case-insensitive), the Sybase isql
// convention, and batches that are empty after the cut are skipped. batch
// is a slice of src without its GO line, rest is the text after that line,
// and ok is false when src holds no batch. A caller runs a script by
// looping on it.
func NextBatch(src string) (batch, rest string, ok bool) {
	start := 0 // where the batch being scanned begins
	for pos := 0; pos < len(src); {
		end, next := len(src), len(src)
		if i := strings.IndexByte(src[pos:], '\n'); i >= 0 {
			end, next = pos+i, pos+i+1
		}
		if strings.EqualFold(strings.TrimSpace(src[pos:end]), "go") {
			if strings.TrimSpace(src[start:pos]) != "" {
				return src[start:pos], src[next:], true
			}
			start = next
		}
		pos = next
	}
	if strings.TrimSpace(src[start:]) != "" {
		return src[start:], "", true
	}
	return "", "", false
}

// Parser parses one batch of SQL text.
type Parser struct {
	src  string
	toks []sqllex.Token
	pos  int
	// slots, when not nil, receives the slot of every number and string
	// token, in token order (template.go).
	slots *[]slot
}

// NewParser tokenizes src and returns a parser over it.
func NewParser(src string) (*Parser, error) {
	toks, err := sqllex.Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Parser{src: src, toks: toks}, nil
}

// ParseBatch parses every statement in one batch (no GO separators).
func ParseBatch(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	return p.Statements()
}

// ParseExpr parses a single expression, requiring full consumption.
func ParseExpr(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("unexpected %q after expression", p.peek().Text)
	}
	return e, nil
}

// Statements parses statements until the end of the batch.
func (p *Parser) Statements() ([]Statement, error) {
	var out []Statement
	for {
		p.skipSemis()
		if p.atEOF() {
			return out, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) peek() sqllex.Token {
	if p.atEOF() {
		return sqllex.Token{Kind: sqllex.TokEOF, Pos: len(p.src), End: len(p.src)}
	}
	return p.toks[p.pos]
}

func (p *Parser) peekAt(n int) sqllex.Token {
	if p.pos+n >= len(p.toks) {
		return sqllex.Token{Kind: sqllex.TokEOF, Pos: len(p.src), End: len(p.src)}
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() sqllex.Token {
	t := p.peek()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *Parser) accept(kw string) bool {
	if p.peek().IsKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptOp(op string) bool {
	if p.peek().IsOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.accept(kw) {
		return fmt.Errorf("expected %q, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("expected %q, got %q", op, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != sqllex.TokIdent {
		return "", fmt.Errorf("expected identifier, got %q", t.Text)
	}
	p.pos++
	return t.Text, nil
}

func (p *Parser) skipSemis() {
	for p.acceptOp(";") {
	}
}

// parseObjectName parses name, owner.name, db.owner.name, and the Sybase
// short form db..name.
func (p *Parser) parseObjectName() (ObjectName, error) {
	var parts []string
	id, err := p.expectIdent()
	if err != nil {
		return ObjectName{}, err
	}
	parts = append(parts, id)
	for p.peek().IsOp(".") {
		// Lookahead: the dot must be followed by an ident or another dot
		// (db..name). A ".*" belongs to the caller.
		if p.peekAt(1).Kind != sqllex.TokIdent && !p.peekAt(1).IsOp(".") {
			break
		}
		p.pos++ // consume '.'
		if p.peek().IsOp(".") {
			parts = append(parts, "") // db..name empty owner
			continue
		}
		id, err := p.expectIdent()
		if err != nil {
			return ObjectName{}, err
		}
		parts = append(parts, id)
		if len(parts) > 4 {
			return ObjectName{}, fmt.Errorf("name %s has too many components", strings.Join(parts, "."))
		}
	}
	return ObjectName{Parts: parts}, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != sqllex.TokIdent {
		return nil, fmt.Errorf("expected statement, got %q", t.Text)
	}
	switch strings.ToLower(t.Text) {
	case "create":
		return p.parseCreate()
	case "drop":
		return p.parseDrop()
	case "alter":
		return p.parseAlter()
	case "insert":
		return p.parseInsert()
	case "select":
		return p.parseSelect()
	case "update":
		return p.parseUpdate()
	case "delete":
		return p.parseDelete()
	case "exec", "execute":
		return p.parseExecute()
	case "print":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Print{Value: e}, nil
	case "use":
		p.pos++
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &UseDatabase{Name: name}, nil
	case "begin":
		p.pos++
		if !p.accept("tran") && !p.accept("transaction") {
			return nil, fmt.Errorf("expected TRAN after BEGIN")
		}
		return &BeginTran{}, nil
	case "commit":
		p.pos++
		_ = p.accept("tran") || p.accept("transaction") || p.accept("work")
		return &CommitTran{}, nil
	case "rollback":
		p.pos++
		_ = p.accept("tran") || p.accept("transaction") || p.accept("work")
		return &RollbackTran{}, nil
	default:
		return nil, fmt.Errorf("unknown statement keyword %q", t.Text)
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	p.pos++ // create
	switch {
	case p.accept("database"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &CreateDatabase{Name: name}, nil
	case p.accept("table"):
		return p.parseCreateTable()
	case p.accept("trigger"):
		return p.parseCreateTrigger()
	case p.accept("procedure"), p.accept("proc"):
		return p.parseCreateProcedure()
	case p.accept("index"):
		return p.parseCreateIndex()
	default:
		return nil, fmt.Errorf("unsupported CREATE %q", p.peek().Text)
	}
}

// parseCreateIndex parses the rest of CREATE INDEX name ON table (column).
// Only single-column indexes exist.
func (p *Parser) parseCreateIndex() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.peek().IsOp(",") {
		return nil, fmt.Errorf("create index takes one column")
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Column: col}, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	typeName, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	if p.acceptOp("(") {
		lenTok := p.next()
		if lenTok.Kind != sqllex.TokNumber {
			return ColumnDef{}, fmt.Errorf("expected type length, got %q", lenTok.Text)
		}
		typeName += "(" + lenTok.Text + ")"
		if err := p.expectOp(")"); err != nil {
			return ColumnDef{}, err
		}
	}
	typ, err := sqltypes.ParseType(typeName)
	if err != nil {
		return ColumnDef{}, err
	}
	cd := ColumnDef{Name: name, Type: typ}
	if p.accept("null") {
		cd.Nullable = true
		cd.NullSpecified = true
	} else if p.peek().IsKeyword("not") && p.peekAt(1).IsKeyword("null") {
		p.pos += 2
		cd.Nullable = false
		cd.NullSpecified = true
	}
	return cd, nil
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cd, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		cols = append(cols, cd)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Columns: cols}, nil
}

// parseBody parses the rest of the batch as a statement list, returning it
// together with the raw source text it was parsed from.
func (p *Parser) parseBody() ([]Statement, string, error) {
	start := len(p.src)
	if !p.atEOF() {
		start = p.peek().Pos
	}
	raw := strings.TrimSpace(p.src[start:])
	body, err := p.Statements()
	if err != nil {
		return nil, "", err
	}
	if len(body) == 0 {
		return nil, "", fmt.Errorf("empty body after AS")
	}
	return body, raw, nil
}

func (p *Parser) parseCreateTrigger() (Statement, error) {
	name, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("for"); err != nil {
		return nil, err
	}
	opTok := p.next()
	op := TriggerOp(strings.ToLower(opTok.Text))
	if op != OpInsert && op != OpUpdate && op != OpDelete {
		return nil, fmt.Errorf("invalid trigger operation %q", opTok.Text)
	}
	if err := p.expectKeyword("as"); err != nil {
		return nil, err
	}
	body, raw, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	return &CreateTrigger{Name: name, Table: table, Operation: op, Body: body, RawBody: raw}, nil
}

func (p *Parser) parseCreateProcedure() (Statement, error) {
	name, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	var params []ProcParam
	for p.peek().Kind == sqllex.TokVariable {
		pname := p.next().Text
		typeName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.acceptOp("(") {
			lenTok := p.next()
			typeName += "(" + lenTok.Text + ")"
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		typ, err := sqltypes.ParseType(typeName)
		if err != nil {
			return nil, err
		}
		params = append(params, ProcParam{Name: pname, Type: typ})
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKeyword("as"); err != nil {
		return nil, err
	}
	body, raw, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	return &CreateProcedure{Name: name, Params: params, Body: body, RawBody: raw}, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.pos++ // drop
	switch {
	case p.accept("table"):
		name, err := p.parseObjectName()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.accept("trigger"):
		name, err := p.parseObjectName()
		if err != nil {
			return nil, err
		}
		return &DropTrigger{Name: name}, nil
	case p.accept("procedure"), p.accept("proc"):
		name, err := p.parseObjectName()
		if err != nil {
			return nil, err
		}
		return &DropProcedure{Name: name}, nil
	default:
		return nil, fmt.Errorf("unsupported DROP %q", p.peek().Text)
	}
}

func (p *Parser) parseAlter() (Statement, error) {
	p.pos++ // alter
	if err := p.expectKeyword("table"); err != nil {
		return nil, err
	}
	table, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("add"); err != nil {
		return nil, err
	}
	cd, err := p.parseColumnDef()
	if err != nil {
		return nil, err
	}
	return &AlterTableAdd{Table: table, Column: cd}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.pos++ // insert
	p.accept("into")
	table, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	st := &Insert{Table: table}
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.accept("values"):
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.acceptOp(",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			st.Values = append(st.Values, row)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		return st, nil
	case p.peek().IsKeyword("select"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel.(*Select)
		return st, nil
	default:
		return nil, fmt.Errorf("expected VALUES or SELECT in INSERT, got %q", p.peek().Text)
	}
}

func (p *Parser) parseSelect() (Statement, error) {
	p.pos++ // select
	st := &Select{}
	st.Distinct = p.accept("distinct")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.accept("into") {
		name, err := p.parseObjectName()
		if err != nil {
			return nil, err
		}
		st.Into = &name
	}
	if p.accept("from") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			st.From = append(st.From, ref)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.accept("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.peek().IsKeyword("group") {
		p.pos++
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.accept("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.peek().IsKeyword("order") {
		p.pos++
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept("desc") {
				item.Desc = true
			} else {
				p.accept("asc")
			}
			st.OrderBy = append(st.OrderBy, item)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	return st, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// Detect "qualifier.*": an ident chain whose next tokens are '.' '*'.
	if p.peek().Kind == sqllex.TokIdent {
		n := 0
		for p.peekAt(n).Kind == sqllex.TokIdent && p.peekAt(n+1).IsOp(".") {
			if p.peekAt(n + 2).IsOp("*") {
				name, err := p.parseObjectName()
				if err != nil {
					return SelectItem{}, err
				}
				p.pos += 2 // consume '.' '*'
				return SelectItem{Star: true, StarTable: name}, nil
			}
			n += 2
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == sqllex.TokIdent && !isReserved(t.Text) {
		item.Alias = t.Text
		p.pos++
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.parseObjectName()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.accept("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.Kind == sqllex.TokIdent && !isReserved(t.Text) {
		ref.Alias = t.Text
		p.pos++
	}
	return ref, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.pos++ // update
	table, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	st := &Update{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, Assignment{Column: col, Value: val})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.accept("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.pos++ // delete
	p.accept("from")
	table, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	st := &Delete{Table: table}
	if p.accept("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) parseExecute() (Statement, error) {
	p.pos++ // exec / execute
	proc, err := p.parseObjectName()
	if err != nil {
		return nil, err
	}
	st := &Execute{Proc: proc}
	// Arguments are a comma-separated expression list terminated by a
	// statement keyword, a semicolon, or EOF.
	if !p.atEOF() && !p.startsStatement() && !p.peek().IsOp(";") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	return st, nil
}

// startsStatement reports whether the current token begins a new statement.
func (p *Parser) startsStatement() bool {
	t := p.peek()
	if t.Kind != sqllex.TokIdent {
		return false
	}
	switch strings.ToLower(t.Text) {
	case "create", "drop", "alter", "insert", "select", "update", "delete",
		"exec", "execute", "print", "use", "begin", "commit", "rollback":
		return true
	}
	return false
}

// --- expressions ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.accept("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "not", E: e}, nil
	}
	return p.parseComparison()
}

var compOps = map[string]BinaryOp{
	"=": OpEq, "==": OpEq, "<>": OpNe, "!=": OpNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == sqllex.TokOp {
		if op, ok := compOps[t.Text]; ok {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	negate := false
	if t.IsKeyword("not") && (p.peekAt(1).IsKeyword("like") || p.peekAt(1).IsKeyword("in")) {
		negate = true
		p.pos++
		t = p.peek()
	}
	switch {
	case t.IsKeyword("like"):
		p.pos++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryExpr{Op: OpLike, L: l, R: r}
		if negate {
			e = &UnaryExpr{Op: "not", E: e}
		}
		return e, nil
	case t.IsKeyword("in"):
		p.pos++
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InList{E: l, List: list, Negate: negate}, nil
	case t.IsKeyword("is"):
		p.pos++
		neg := p.accept("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Negate: neg}, nil
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpAdd, L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpMul, L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpDiv, L: l, R: r}
		case p.acceptOp("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpMod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok && isNumeric(lit.Value) {
			// Fold negative numeric literals. The literal is this parse's
			// own node, so it is negated in place.
			lit.Value = negate(lit.Value)
			if p.slots != nil {
				s := *p.slots
				for i := len(s) - 1; i >= 0; i-- {
					if s[i].lit == lit {
						s[i].neg = !s[i].neg
						break
					}
				}
			}
			return lit, nil
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case sqllex.TokNumber, sqllex.TokString:
		p.pos++
		v, err := literalValue(t)
		if err != nil {
			return nil, err
		}
		lit := &Literal{Value: v}
		if p.slots != nil {
			*p.slots = append(*p.slots, slot{lit: lit})
		}
		return lit, nil
	case sqllex.TokVariable:
		p.pos++
		return &ColumnRef{Name: t.Text}, nil
	case sqllex.TokOp:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("unexpected %q in expression", t.Text)
	case sqllex.TokIdent:
		if t.IsKeyword("null") {
			p.pos++
			return &Literal{Value: sqltypes.Null}, nil
		}
		// Function call?
		if p.peekAt(1).IsOp("(") {
			name := t.Text
			p.pos += 2
			fc := &FuncCall{Name: strings.ToLower(name)}
			if p.acceptOp("*") {
				fc.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.acceptOp(")") {
				return fc, nil
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, e)
				if p.acceptOp(",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if isReserved(t.Text) {
			return nil, fmt.Errorf("unexpected keyword %q in expression", t.Text)
		}
		// Dotted column reference.
		name, err := p.parseObjectName()
		if err != nil {
			return nil, err
		}
		parts := name.Parts
		return &ColumnRef{
			Qualifier: ObjectName{Parts: parts[:len(parts)-1]},
			Name:      parts[len(parts)-1],
		}, nil
	default:
		return nil, fmt.Errorf("unexpected end of expression")
	}
}

// literalValue is the value of a number or string token.
func literalValue(t sqllex.Token) (sqltypes.Value, error) {
	if t.Kind == sqllex.TokString {
		// The token text shares the batch's memory; a literal may end up
		// stored in a table, which must not keep the whole batch alive.
		return sqltypes.NewString(strings.Clone(t.Text)), nil
	}
	if strings.ContainsAny(t.Text, ".eE") {
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return sqltypes.Value{}, fmt.Errorf("bad number %q: %v", t.Text, err)
		}
		return sqltypes.NewFloat(f), nil
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return sqltypes.Value{}, fmt.Errorf("bad number %q: %v", t.Text, err)
	}
	return sqltypes.NewInt(n), nil
}

func isNumeric(v sqltypes.Value) bool {
	return v.Kind() == sqltypes.KindInt || v.Kind() == sqltypes.KindFloat
}

// negate is unary minus on an INT or FLOAT value.
func negate(v sqltypes.Value) sqltypes.Value {
	if v.Kind() == sqltypes.KindFloat {
		return sqltypes.NewFloat(-v.Float())
	}
	return sqltypes.NewInt(-v.Int())
}
