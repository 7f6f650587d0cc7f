package vacuumpack

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestTraceGoldenSchema locks the JSON trace schema: a full observed
// pipeline run over gzip/A at scale 1 is deterministic once wall-clock
// fields are normalized away, so the exported trace must match the golden
// file byte for byte. Regenerate with `go test -run TraceGolden -update .`
// after an intentional schema or pipeline change.
func TestTraceGoldenSchema(t *testing.T) {
	bench, err := Benchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	in := bench.Inputs[0]
	in.Scale = 1

	rec := NewRecorder()
	outcome, err := RunObserved(ScaledConfig(), DefaultMachine(), bench.Build(in), rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := outcome.EvaluateObserved(rec); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := rec.Export().Normalize().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	// The trace must be valid JSON carrying the schema marker and a span
	// for every pipeline stage, independent of the golden comparison.
	var tr Trace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tr.Schema != "vptrace/v1" {
		t.Errorf("schema = %q", tr.Schema)
	}
	have := make(map[string]bool)
	for _, s := range tr.Spans {
		have[s.Name] = true
	}
	for _, stage := range []string{"pipeline", "profile", "filter", "region", "package", "link", "optimize", "evaluate"} {
		if !have[stage] {
			t.Errorf("stage span %q missing from trace", stage)
		}
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from %s (%d vs %d bytes); regenerate with -update if the change is intentional",
			golden, buf.Len(), len(want))
	}
}
