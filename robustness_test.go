package monomi

// Hostile SQL at the public surfaces: a query the engine cannot evaluate
// must come back as an error — through the facade and as an error frame
// from a served System — and leave the deployment usable.

import (
	"bytes"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/transport"
)

// aliasCycleSQL once sent the engine's alias resolution into unbounded
// recursion: a fatal stack overflow, not a recoverable error.
const aliasCycleSQL = `SELECT nope AS nope FROM orders ORDER BY nope`

func TestAliasCycleQueryFails(t *testing.T) {
	sys := exampleSystem(t)
	defer sys.Close()
	if _, err := sys.Query(aliasCycleSQL); err == nil {
		t.Error("System.Query: alias cycle succeeded, want an error")
	}
	if _, err := sys.QueryPlaintext(aliasCycleSQL); err == nil {
		t.Error("System.QueryPlaintext: alias cycle succeeded, want an error")
	}
	if _, err := sys.Query("SELECT o_id FROM orders WHERE o_total > 100"); err != nil {
		t.Fatalf("valid query after the alias cycle: %v", err)
	}
}

// TestAliasCycleQueryFrame sends the alias cycle as a raw query frame to a
// served System — no trusted client planning in front of it — and expects
// an error frame, after which the same session still answers.
func TestAliasCycleQueryFrame(t *testing.T) {
	sys := exampleSystem(t)
	defer sys.Close()
	srv, err := sys.Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := transport.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf bytes.Buffer
	if _, err := conn.ExecuteStream(sqlparser.MustParse(aliasCycleSQL), nil, &buf); err == nil {
		t.Fatal("alias cycle frame: no error frame")
	}
	buf.Reset()
	st, err := conn.ExecuteStream(sqlparser.MustParse(`SELECT COUNT(*) FROM orders`), nil, &buf)
	if err != nil {
		t.Fatalf("same session after the alias cycle: %v", err)
	}
	if st.Rows != 1 {
		t.Fatalf("COUNT(*) returned %d rows, want 1", st.Rows)
	}
}
