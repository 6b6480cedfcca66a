package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestEveryFigureRegenerates runs each figure function and checks for
// non-empty output, so figure regeneration cannot silently rot.
func TestEveryFigureRegenerates(t *testing.T) {
	for _, id := range figureIDs() {
		t.Run("figure"+id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := figures[id].fn(&buf); err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
			if strings.TrimSpace(buf.String()) == "" {
				t.Fatalf("figure %s produced no output", id)
			}
		})
	}
}

// TestFigureContentSpotChecks asserts paper-visible content of key
// figures.
func TestFigureContentSpotChecks(t *testing.T) {
	check := func(id string, wants ...string) {
		t.Helper()
		var buf bytes.Buffer
		if err := figures[id].fn(&buf); err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		out := buf.String()
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("figure %s missing %q", id, want)
			}
		}
	}
	check("1", "MATCH")
	check("3", "ECA command = true", "SysPrimitiveEvent")
	check("4", "Step 6")
	check("5", "vNo", "timeStamp")
	check("7", "triggerProc")
	check("11", "select * into sentineldb.sharma.stock_inserted", "syb_sendmsg")
	check("14", "create procedure sentineldb.sharma.t_and__Proc", "sysContext")
	check("17", "tableName", "context", "vNo")
	check("snoop", "P*(e1, [5 sec]:param, e3)")
	check("limits", "Composite events cannot be specified")
}

func TestFigureIDsOrdered(t *testing.T) {
	ids := figureIDs()
	if len(ids) != len(figures) {
		t.Fatalf("ids %d vs figures %d", len(ids), len(figures))
	}
	if ids[0] != "1" || ids[16] != "17" {
		t.Errorf("numeric ordering: %v", ids)
	}
}
