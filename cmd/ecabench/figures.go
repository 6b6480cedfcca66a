package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/snoop"
	"github.com/activedb/ecaagent/internal/sqlparse"
)

// rig is an in-process deployment used to regenerate the paper's figures
// from the live system.
type rig struct {
	eng   *engine.Engine
	agent *agent.Agent
	cs    *agent.ClientSession
}

func newRig() (*rig, error) {
	eng := engine.New(catalog.New())
	a, err := agent.New(agent.Config{
		Dial:       agent.LocalDialer(eng),
		NotifyAddr: "-",
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	eng.SetNotifier(func(h string, p int, msg string) error { a.Deliver(msg); return nil })
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript(`create database sentineldb
use sentineldb
create table stock (symbol varchar(10), price float null)`); err != nil {
		a.Close()
		return nil, err
	}
	cs, err := a.NewClientSession("sharma", "sentineldb")
	if err != nil {
		a.Close()
		return nil, err
	}
	return &rig{eng: eng, agent: a, cs: cs}, nil
}

func (r *rig) close() {
	r.cs.Close()
	r.agent.Close()
}

// figures maps figure ids to their regeneration functions.
var figures = map[string]struct {
	title string
	fn    func(w io.Writer) error
}{
	"1":     {"Architecture of Mediated Approach", figure1},
	"2":     {"Architecture of an ECA agent", figure2},
	"3":     {"Control Flow for Creating ECA Rules", figure3},
	"4":     {"Control Flow of Event notification and Action", figure4},
	"5":     {"Schema of SysPrimitiveEvent Table", schemaFigure(agent.TabPrimitiveEvent)},
	"6":     {"Schema of SysCompositeEvent Table", schemaFigure(agent.TabCompositeEvent)},
	"7":     {"Schema of SysEcaTrigger Table", schemaFigure(agent.TabEcaTrigger)},
	"8":     {"Implementation of the Persistent Manager", figure8},
	"9":     {"Syntax of Primitive Event Definition", figure9},
	"10":    {"Syntax of Defining a Trigger on Existing Event", figure10},
	"11":    {"Code Generation for the Primitive Trigger (Example 1)", figure11},
	"12":    {"Syntax of Composite Event Definition", figure12},
	"13":    {"Structure of NotiStr", figure13},
	"14":    {"Stored procedure for Example 2", figure14},
	"15":    {"Workflow of Event Notifier", figure15},
	"16":    {"Action Handler", figure16},
	"17":    {"Structure of Table sysContext", schemaFigure(agent.TabContext)},
	"snoop": {"Snoop BNF coverage (§2.1)", figureSnoop},
	"graph": {"Event graph of the Example 1+2 rulebase (Graphviz DOT)", figureGraph},
	"limits": {"Native trigger limitations (§2.2) and how the agent lifts them",
		figureLimits},
}

func figureIDs() []string {
	ids := make([]string, 0, len(figures))
	for id := range figures {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		an, aerr := atoi(a)
		bn, berr := atoi(b)
		switch {
		case aerr == nil && berr == nil:
			return an < bn
		case aerr == nil:
			return true
		case berr == nil:
			return false
		default:
			return a < b
		}
	})
	return ids
}

func atoi(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("not a number")
		}
		n = n*10 + int(r-'0')
	}
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	return n, nil
}

func schemaFigure(table string) func(io.Writer) error {
	return func(w io.Writer) error {
		out, err := agent.FigureSchema(table)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, out)
		return err
	}
}

func figure1(w io.Writer) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	defer r.close()
	fmt.Fprintln(w, "clients  <-- tds -->  ECA Agent (gateway)  <-- tds -->  SQL Server")
	fmt.Fprintln(w, "                          ^                                |")
	fmt.Fprintln(w, "                          +------- UDP notifications ------+")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "Transparency demonstration: the same statement through the agent and")
	fmt.Fprintln(w, "directly against the server yields identical results.")
	if _, err := r.cs.Exec("insert stock values ('IBM', 100.5)"); err != nil {
		return err
	}
	viaAgent, err := r.cs.Query("select symbol, price from stock")
	if err != nil {
		return err
	}
	direct := r.eng.NewSession("sharma")
	_ = direct.Use("sentineldb")
	directRes, err := direct.ExecScript("select symbol, price from stock")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nvia agent:\n%s\ndirect:\n%s", viaAgent.Format(), directRes[0].Format())
	if viaAgent.Format() == directRes[0].Format() {
		fmt.Fprintln(w, "MATCH: the mediator is transparent")
	} else {
		fmt.Fprintln(w, "MISMATCH")
	}
	return nil
}

func figure2(w io.Writer) error {
	modules := []struct{ name, impl, role string }{
		{"General Interface (Gateway Open Server)", "server.OpenServer + ListenGateway", "same wire protocol on both sides; pass-through"},
		{"Language Filter", "ClientSession.Exec", "classifies batches: ECA command vs ordinary SQL"},
		{"ECA Parser", "internal/agent/ecaparse.go + codegen.go", "parses Figures 9/10/12 syntax; generates server SQL"},
		{"Local Event Detector (LED)", "internal/led", "Snoop event graph; contexts; couplings"},
		{"Persistent Manager", "internal/agent/persist.go", "system tables; persistence; recovery"},
		{"Event Notifier", "internal/agent/notifier.go", "UDP listener; decodes; signals the LED"},
		{"Action Handler", "internal/agent/action.go", "one FIFO action queue; sysContext; executes procs"},
	}
	fmt.Fprintf(w, "%-42s %-38s %s\n", "Module (Figure 2)", "Implementation", "Role")
	for _, m := range modules {
		fmt.Fprintf(w, "%-42s %-38s %s\n", m.name, m.impl, m.role)
	}
	return nil
}

func figure3(w io.Writer) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	defer r.close()
	cmd := `create trigger t_addStk on stock for insert
event addStk
as print 'trigger t_addStk on primitive event addStk occurs'`
	fmt.Fprintln(w, "Client command:")
	fmt.Fprintln(w, cmd)
	fmt.Fprintln(w, "\nStep 1-2: command enters the Gateway and is forwarded to the Language Filter")
	fmt.Fprintf(w, "Step 3:   Language Filter classifies it: ECA command = %v\n", agent.IsECACreateTrigger(cmd))
	fmt.Fprintln(w, "Step 4-5: ECA Parser validates, creates the event graph in the LED, and")
	fmt.Fprintln(w, "          sends generated SQL to the server; Persistent Manager stores the rule")
	results, err := r.cs.Exec(cmd)
	if err != nil {
		return err
	}
	for _, rs := range results {
		for _, m := range rs.Messages {
			fmt.Fprintf(w, "Step 6:   result returned to client: %q\n", m)
		}
	}
	fmt.Fprintf(w, "Step 7:   persisted state: events=%v triggers=%v\n", r.agent.Events(), r.agent.Triggers())
	rs, err := r.cs.Query("select eventName, tableName, operation, vNo from SysPrimitiveEvent")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSysPrimitiveEvent after creation:\n%s", rs.Format())
	return nil
}

func figure4(w io.Writer) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	defer r.close()
	if _, err := r.cs.Exec(`create trigger t_addStk on stock for insert
event addStk
as print 'trigger t_addStk on primitive event addStk occurs'`); err != nil {
		return err
	}
	fmt.Fprintln(w, "Step 1: client sends DML through the gateway:   insert stock values ('IBM', 101)")
	if _, err := r.cs.Exec("insert stock values ('IBM', 101)"); err != nil {
		return err
	}
	fmt.Fprintln(w, "Step 2: the native trigger fires in the server and sends a UDP notification")
	fmt.Fprintln(w, "Step 3: the Event Notifier decodes it and signals the LED")
	fmt.Fprintln(w, "Step 4: the LED detects the event occurrence and invokes the Action Handler")
	select {
	case res := <-r.agent.ActionDone:
		fmt.Fprintf(w, "Step 5: the Action Handler executed %s\n", res.Rule)
		fmt.Fprintf(w, "Step 6: action output returned: %v\n", res.Messages)
	case <-time.After(5 * time.Second):
		return fmt.Errorf("rule never fired")
	}
	return nil
}

func figure8(w io.Writer) error {
	eng := engine.New(catalog.New())
	quiet := func(string, ...any) {}
	a1, err := agent.New(agent.Config{Dial: agent.LocalDialer(eng), NotifyAddr: "-", Logf: quiet})
	if err != nil {
		return err
	}
	eng.SetNotifier(func(h string, p int, msg string) error { a1.Deliver(msg); return nil })
	seed := eng.NewSession("sharma")
	if _, err := seed.ExecScript("create database sentineldb use sentineldb create table stock (symbol varchar(10), price float null)"); err != nil {
		return err
	}
	cs, err := a1.NewClientSession("sharma", "sentineldb")
	if err != nil {
		return err
	}
	for _, sql := range []string{
		"create trigger t_add on stock for insert event addStk as print 'a'",
		"create trigger t_del on stock for delete event delStk as print 'd'",
		"create trigger t_and event addDel = addStk ^ delStk as print 'x'",
	} {
		if _, err := cs.Exec(sql); err != nil {
			return err
		}
	}
	cs.Close()
	fmt.Fprintln(w, "The Persistent Manager runs on a dedicated privileged connection (Fig 8).")
	fmt.Fprintf(w, "Before restart: events=%d triggers=%d\n", len(a1.Events()), len(a1.Triggers()))
	a1.Close()

	start := time.Now()
	a2, err := agent.New(agent.Config{Dial: agent.LocalDialer(eng), NotifyAddr: "-", Logf: quiet})
	if err != nil {
		return err
	}
	defer a2.Close()
	fmt.Fprintf(w, "After restart (recovery from system tables in %v):\n", time.Since(start).Round(time.Microsecond))
	fmt.Fprintf(w, "  events   = %v\n", a2.Events())
	fmt.Fprintf(w, "  triggers = %v\n", a2.Triggers())
	return nil
}

func figure9(w io.Writer) error {
	fmt.Fprintln(w, `create trigger [owner.] trigger_name
on [owner.] table_name
for operation
event event_name [coupling_mode] [parameter_context] [priority]
as SQL_statements

operation         := insert | delete | update
parameter_context := RECENT | CHRONICLE | CONTINUOUS | CUMULATIVE
coupling_mode     := IMMEDIATE | DEFERED | DETACHED
priority          := positive integer`)
	fmt.Fprintln(w, "\nAccepted example (parsed by the live ECA parser):")
	def, err := agent.ParseECATrigger("create trigger t_addStk on stock for insert event addStk as print 'x'")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  trigger=%v table=%v op=%s event=%s coupling=%s context=%s priority=%d\n",
		def.TriggerName, def.TableName, def.Operation, def.EventName, def.Coupling, def.Context, def.Priority)
	return nil
}

func figure10(w io.Writer) error {
	fmt.Fprintln(w, `create trigger [owner.] trigger_name
event event_name [coupling_mode] [parameter_context] [priority]
as SQL_statements`)
	def, err := agent.ParseECATrigger("create trigger t2 event addStk CUMULATIVE 5 as select count(*) from stock")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAccepted example: trigger=%v event=%s context=%s priority=%d (no new event defined: %v)\n",
		def.TriggerName, def.EventName, def.Context, def.Priority, !def.DefinesEvent())
	return nil
}

func figure11(w io.Writer) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	defer r.close()
	fmt.Fprintln(w, "Example 1 input:")
	fmt.Fprintln(w, "  create trigger t_addStk on stock for insert event addStk")
	fmt.Fprintln(w, "  as print 'trigger t_addStk on primitive event addStk occurs'")
	fmt.Fprintln(w, "     select * from stock")
	fmt.Fprintln(w, "\nGenerated server SQL (regenerated live):")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	batches := agent.GenPrimitiveEventSQL("sentineldb.sharma.addStk", "sentineldb.sharma.stock",
		sqlparse.OpInsert, "128.227.205.215", 10006)
	for i, b := range batches {
		fmt.Fprintf(w, "/* batch %d */\n%s\ngo\n", i+1, b)
	}
	fmt.Fprintln(w, strings.Repeat("-", 72))
	fmt.Fprintln(w, "Deviation from the paper's Figure 11: the trailing 'execute <proc>' moves")
	fmt.Fprintln(w, "from the native trigger into the Action Handler (via the LED), so that")
	fmt.Fprintln(w, "multiple triggers per event, contexts and couplings work for primitive")
	fmt.Fprintln(w, "events too. The scratch 'Version' table is replaced by reading vNo from")
	fmt.Fprintln(w, "SysPrimitiveEvent directly (equivalent, one less race).")
	return nil
}

func figure12(w io.Writer) error {
	fmt.Fprintln(w, `create trigger [owner.] trigger_name
event event_name [= Snoop_Event_exp]
[coupling_mode] [parameter_context] [priority]
as SQL_statements`)
	def, err := agent.ParseECATrigger("create trigger t_and event addDel = delStk ^ addStk RECENT as select symbol, price from stock.inserted")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nExample 2 parsed: event %s = %q, context %s\n", def.EventName, def.EventExpr, def.Context)
	return nil
}

func figure13(w io.Writer) error {
	fmt.Fprintln(w, "Paper's NotiStr (C struct):            This reproduction (Go):")
	fmt.Fprintln(w, "  char store_proc[MAX_PARA_LENGTH]       ActionParam.StoreProc string")
	fmt.Fprintln(w, "  char eventName[EVENT_NAME_LENGTH]      ActionParam.EventName string")
	fmt.Fprintln(w, "  char context[CONTEXT_LEN]              ActionParam.Context   led.Context")
	fmt.Fprintln(w, "  SRV_PROC *spp (thread ctrl struct)     ActionParam.DB        string +")
	fmt.Fprintln(w, "                                         ActionDone channel for result routing")
	return nil
}

func figure14(w io.Writer) error {
	proc := agent.GenActionProcSQL(
		"sentineldb.sharma.t_and__Proc",
		"RECENT",
		"print 'trigger t_and on composite event addDel = addStk ^ delStk'\nselect symbol, price from sentineldb.sharma.stock_inserted_tmp",
		[]agent.ShadowRef{{Table: "sentineldb.sharma.stock", Op: "inserted"}},
	)
	fmt.Fprintln(w, "Generated stored procedure for Example 2 (regenerated live):")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	fmt.Fprintln(w, proc)
	fmt.Fprintln(w, strings.Repeat("-", 72))
	fmt.Fprintln(w, "Deviation: sysContext rows are keyed by the shadow table")
	fmt.Fprintln(w, "(stock_inserted) rather than the base table, because each event keeps its")
	fmt.Fprintln(w, "own vNo counter; the paper's base-table key can cross-match events.")
	return nil
}

func figure15(w io.Writer) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	defer r.close()
	if _, err := r.cs.Exec("create trigger t on stock for insert event addStk as print 'fired'"); err != nil {
		return err
	}
	fmt.Fprintln(w, "Event Notifier workflow (Figure 15):")
	fmt.Fprintln(w, "  server trigger --syb_sendmsg/UDP--> Notification Listener --> Notifier --> LED")
	fmt.Fprintln(w, "\nLive trace: delivering a notification datagram by hand:")
	msg := "ECA1|sentineldb.sharma.addStk|sentineldb.sharma.stock|insert|1"
	fmt.Fprintf(w, "  datagram: %q\n", msg)
	r.agent.Deliver(msg)
	select {
	case res := <-r.agent.ActionDone:
		fmt.Fprintf(w, "  -> LED detected %s, action ran: %v\n", res.Event, res.Messages)
	case <-time.After(5 * time.Second):
		return fmt.Errorf("notification was not processed")
	}
	fmt.Fprintln(w, "  malformed datagrams are dropped without disturbing the agent:")
	r.agent.Deliver("garbage")
	fmt.Fprintln(w, "  -> delivered \"garbage\": agent still healthy")
	return nil
}

func figure16(w io.Writer) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	defer r.close()
	for i, sql := range []string{
		"create trigger t1 on stock for insert event addStk as print 'rule one'",
		"create trigger t2 event addStk 10 as print 'rule two (priority 10)'",
	} {
		if _, err := r.cs.Exec(sql); err != nil {
			return fmt.Errorf("setup %d: %w", i, err)
		}
	}
	fmt.Fprintln(w, "Action Handler (Figure 16): SybaseAction calls run on one FIFO queue in")
	fmt.Fprintln(w, "detection (priority) order; each invokes its stored procedure")
	fmt.Fprintln(w, "through the gateway's upstream connection.")
	if _, err := r.cs.Exec("insert stock values ('X', 1)"); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		select {
		case res := <-r.agent.ActionDone:
			fmt.Fprintf(w, "  action %d: rule=%s output=%v\n", i+1, res.Rule, res.Messages)
		case <-time.After(5 * time.Second):
			return fmt.Errorf("action %d never completed", i+1)
		}
	}
	return nil
}

func figureSnoop(w io.Writer) error {
	fmt.Fprintln(w, "Snoop operators (§2.1 BNF), each parsed and detected by the live LED:")
	examples := []string{
		"e1 | e2",
		"e1 ^ e2",
		"e1 ; e2",
		"NOT(e1, e2, e3)",
		"A(e1, e2, e3)",
		"A*(e1, e2, e3)",
		"P(e1, [5 sec], e3)",
		"P*(e1, [5 sec]:param, e3)",
		"e1 PLUS [30 sec]",
		"deposit:account1",
		"login::site_app",
	}
	for _, ex := range examples {
		fmt.Fprintf(w, "  %-28s", ex)
		if _, err := snoop.Parse(ex); err != nil {
			fmt.Fprintf(w, "PARSE ERROR: %v\n", err)
			continue
		}
		fmt.Fprintln(w, "ok")
	}
	return nil
}

func figureGraph(w io.Writer) error {
	r, err := newRig()
	if err != nil {
		return err
	}
	defer r.close()
	for _, sql := range []string{
		"create trigger t_addStk on stock for insert event addStk as print 'a'",
		"create trigger t_delStk on stock for delete event delStk as print 'd'",
		"create trigger t_and event addDel = delStk ^ addStk RECENT as select symbol, price from stock.inserted",
	} {
		if _, err := r.cs.Exec(sql); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "LED event graph after installing Examples 1 and 2 (pipe into `dot -Tsvg`):")
	fmt.Fprintln(w, r.agent.LED().Dot())
	return nil
}

func figureLimits(w io.Writer) error {
	limits := []struct{ limitation, status string }{
		{"Definition of complex data types is not allowed", "retained in the engine (faithful); the agent adds no types"},
		{"No direct access to C / other programs / the OS", "lifted: agent actions are Go callbacks at GED level; SQL actions in server"},
		{"Only atomic values may be passed to stored procedures", "retained (faithful); contexts pass tuples via sysContext join instead"},
		{"A trigger cannot be applied to more than one table", "lifted: composite events span tables (Example 2)"},
		{"New trigger on same (table, op) silently overwrites", "retained natively (tested); lifted for ECA triggers: many per event"},
		{"An event cannot be named and reused", "lifted: named events, Figure 10 reuse"},
		{"Composite events cannot be specified", "lifted: full Snoop algebra"},
	}
	for i, l := range limits {
		fmt.Fprintf(w, "%d. %s\n   -> %s\n", i+1, l.limitation, l.status)
	}
	return nil
}
