package benchlab

import "testing"

func TestPreparedSmoke(t *testing.T) {
	r := &Runner{Scale: 1.0 / 64.0, Repeat: 1}
	exp, err := r.Experiment("prepared")
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.RunExperiment(exp)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatTable(results))
	if len(results) != 6 { // three sizes × unprepared, prepared
		t.Fatalf("got %d cells", len(results))
	}
}
