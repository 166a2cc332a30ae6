package profile

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"github.com/olaplab/gmdj/internal/obs"
)

// Bundle validation: the logic behind olapcheck bundle, shared with the
// serving-layer tests and the chaos harness. A bundle is valid when
// its manifest parses, every member the manifest claims exists with
// the recorded size and checksum, no unlisted files hide in the
// directory, and each member's content passes its format check
// (Prometheus exposition, JSON, pprof protobuf, non-empty text).

// ReadManifest parses a bundle's MANIFEST.json.
func ReadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", ManifestName, err)
	}
	return &man, nil
}

// ValidateBundle checks one published bundle directory. required lists
// member names that must be present and error-free; every other
// manifest entry is checked when its source succeeded and tolerated
// when it recorded an error.
func ValidateBundle(dir string, required []string) error {
	man, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	if man.Version != 1 {
		return fmt.Errorf("manifest version %d unsupported", man.Version)
	}
	if man.Trigger == "" {
		return fmt.Errorf("manifest has no trigger")
	}
	if man.CapturedAt == "" {
		return fmt.Errorf("manifest has no captured_at")
	}
	listed := map[string]ManifestEntry{}
	for _, e := range man.Files {
		if e.Name == "" || strings.Contains(e.Name, "/") || strings.Contains(e.Name, "..") {
			return fmt.Errorf("manifest entry %q: invalid member name", e.Name)
		}
		if _, dup := listed[e.Name]; dup {
			return fmt.Errorf("manifest lists %q twice", e.Name)
		}
		listed[e.Name] = e
	}
	for _, req := range required {
		e, ok := listed[req]
		if !ok {
			return fmt.Errorf("required member %q not in manifest", req)
		}
		if e.Error != "" {
			return fmt.Errorf("required member %q failed at capture: %s", req, e.Error)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		name := ent.Name()
		if name == ManifestName {
			continue
		}
		if _, ok := listed[name]; !ok {
			return fmt.Errorf("file %q present but not in manifest", name)
		}
	}
	for _, e := range man.Files {
		if e.Error != "" {
			continue // source failed at capture time; recorded, not present
		}
		path := filepath.Join(dir, e.Name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("member %q: %w", e.Name, err)
		}
		if int64(len(raw)) != e.Size {
			return fmt.Errorf("member %q: size %d, manifest says %d", e.Name, len(raw), e.Size)
		}
		h := fnv.New32a()
		h.Write(raw)
		if sum := fmt.Sprintf("%08x", h.Sum32()); sum != e.FNV32a {
			return fmt.Errorf("member %q: checksum %s, manifest says %s", e.Name, sum, e.FNV32a)
		}
		if err := checkMemberContent(e.Name, raw); err != nil {
			return fmt.Errorf("member %q: %w", e.Name, err)
		}
	}
	return nil
}

// checkMemberContent applies the per-format check implied by the
// member's extension.
func checkMemberContent(name string, raw []byte) error {
	switch {
	case strings.HasSuffix(name, ".prom"):
		return obs.ValidateExposition(raw)
	case strings.HasSuffix(name, ".json"):
		if !json.Valid(raw) {
			return fmt.Errorf("invalid JSON")
		}
	case strings.HasSuffix(name, ".pprof"):
		if _, err := ParseProfile(raw); err != nil {
			return err
		}
	case strings.HasSuffix(name, ".txt"):
		if len(raw) == 0 {
			return fmt.Errorf("empty")
		}
	}
	return nil
}

// CheckCPULabels verifies that the bundle's CPU profile attributes
// work: when cpu.pprof is present, error-free, and carries samples, at
// least one sample must hold each of the given label keys. A CPU
// window that caught no samples (an idle process) passes vacuously —
// the check guards attribution, not load.
func CheckCPULabels(dir string, keys []string) error {
	man, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	var entry *ManifestEntry
	for i := range man.Files {
		if man.Files[i].Name == "cpu.pprof" {
			entry = &man.Files[i]
		}
	}
	if entry == nil || entry.Error != "" {
		return nil // no CPU capture in this bundle; nothing to attribute
	}
	raw, err := os.ReadFile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	prof, err := ParseProfile(raw)
	if err != nil {
		return err
	}
	if len(prof.Samples) == 0 {
		return nil
	}
	for _, key := range keys {
		if !prof.HasLabelKey(key) {
			return fmt.Errorf("cpu.pprof: %d samples, none labeled %q", len(prof.Samples), key)
		}
	}
	return nil
}
