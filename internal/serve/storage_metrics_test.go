package serve

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// storageFamilies is every olap_storage_* family prom.go exports; the
// exposition test and olapcheck prom agree on this set.
var storageFamilies = []string{
	"olap_storage_generation",
	"olap_storage_tables",
	"olap_storage_quarantined_tables",
	"olap_storage_segments_written_total",
	"olap_storage_segments_recovered_total",
	"olap_storage_segments_quarantined_total",
	"olap_storage_checkpoints_total",
	"olap_storage_recoveries_total",
	"olap_storage_manifests_skipped_total",
	"olap_storage_bytes_written_total",
	"olap_storage_bytes_read_total",
}

// TestMetricsStorageFamilies: with a data directory configured, every
// olap_storage_* family must appear in /metrics with values matching
// the store's actual state; without one, none may appear (the golden
// exposition test pins that byte-for-byte — this guards the gate
// directly).
func TestMetricsStorageFamilies(t *testing.T) {
	db := usersDB(t)
	if _, err := db.SetDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	gen, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 {
		t.Fatal("checkpoint committed generation 0")
	}
	s := NewServer(db, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	samples, err := scrape(srv)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, smp := range samples {
		if strings.HasPrefix(smp.name, "olap_storage_") {
			got[smp.name] = smp.value
		}
	}
	for _, fam := range storageFamilies {
		if _, ok := got[fam]; !ok {
			t.Errorf("family %s missing from persistent exposition", fam)
		}
	}
	for fam := range got {
		known := false
		for _, want := range storageFamilies {
			known = known || fam == want
		}
		if !known {
			t.Errorf("unexpected storage family %s (add it to storageFamilies and olapcheck prom)", fam)
		}
	}
	if got["olap_storage_generation"] != float64(gen) {
		t.Errorf("olap_storage_generation = %v, want %d", got["olap_storage_generation"], gen)
	}
	if got["olap_storage_tables"] != 1 {
		t.Errorf("olap_storage_tables = %v, want 1", got["olap_storage_tables"])
	}
	if got["olap_storage_checkpoints_total"] == 0 {
		t.Error("olap_storage_checkpoints_total = 0 after an explicit checkpoint")
	}
	if got["olap_storage_segments_written_total"] == 0 {
		t.Error("olap_storage_segments_written_total = 0 after an explicit checkpoint")
	}
	if got["olap_storage_bytes_written_total"] == 0 {
		t.Error("olap_storage_bytes_written_total = 0 after an explicit checkpoint")
	}
	if got["olap_storage_quarantined_tables"] != 0 {
		t.Errorf("olap_storage_quarantined_tables = %v on a healthy store", got["olap_storage_quarantined_tables"])
	}

	// The in-memory exposition must not leak any storage family.
	// (SetDataDir("") forces persistence off even when the suite runs
	// under GMDJ_DATA_DIR, where Open attaches a store by default.)
	memDB := usersDB(t)
	if _, err := memDB.SetDataDir(""); err != nil {
		t.Fatal(err)
	}
	mem := NewServer(memDB, Config{})
	memSrv := httptest.NewServer(mem.Handler())
	defer memSrv.Close()
	samples, err = scrape(memSrv)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range samples {
		if strings.HasPrefix(smp.name, "olap_storage_") {
			t.Errorf("family %s exported without a data directory", smp.name)
		}
	}
}
