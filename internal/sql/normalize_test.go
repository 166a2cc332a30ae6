package sql

import (
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/value"
)

func TestNormalizeLiftsLiterals(t *testing.T) {
	text, args, explicit, err := Normalize(
		"select  name from users\nwhere score > 15 and ip = '10.0.0.1'")
	if err != nil {
		t.Fatal(err)
	}
	if explicit {
		t.Fatal("no placeholders in input, explicit should be false")
	}
	want := "SELECT name FROM users WHERE score > $1 AND ip = $2"
	if text != want {
		t.Fatalf("text = %q, want %q", text, want)
	}
	if len(args) != 2 || args[0].AsInt() != 15 || args[1].AsString() != "10.0.0.1" {
		t.Fatalf("args = %v", args)
	}
}

func TestNormalizeSharesTextAcrossConstants(t *testing.T) {
	t1, a1, _, err := Normalize("SELECT x FROM t WHERE x > 1")
	if err != nil {
		t.Fatal(err)
	}
	t2, a2, _, err := Normalize("SELECT x FROM t WHERE x > 999")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatalf("constant-only variants differ: %q vs %q", t1, t2)
	}
	if a1[0].AsInt() != 1 || a2[0].AsInt() != 999 {
		t.Fatalf("args: %v %v", a1, a2)
	}
}

func TestNormalizeFloat(t *testing.T) {
	_, args, _, err := Normalize("SELECT x FROM t WHERE x > 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 1 || args[0].AsFloat() != 1.5 {
		t.Fatalf("args = %v", args)
	}
}

func TestNormalizeStructuralLiteralsStayInline(t *testing.T) {
	text, args, _, err := Normalize("SELECT x FROM t WHERE name LIKE 'a%' ORDER BY x LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 0 {
		t.Fatalf("structural literals were lifted: %q args %v", text, args)
	}
	wantSub := "LIKE 'a%'"
	if want := wantSub; !contains(text, want) {
		t.Fatalf("text = %q, want it to contain %q", text, want)
	}
	if !contains(text, "LIMIT 5") {
		t.Fatalf("text = %q, want inline LIMIT 5", text)
	}
}

func TestNormalizeExplicitPlaceholders(t *testing.T) {
	text, args, explicit, err := Normalize("SELECT x FROM t WHERE x > ? AND y < 3")
	if err != nil {
		t.Fatal(err)
	}
	if !explicit {
		t.Fatal("explicit should be true")
	}
	if args != nil {
		t.Fatalf("explicit queries must not auto-lift, got args %v", args)
	}
	if !contains(text, "y < 3") {
		t.Fatalf("literals must stay inline in explicit queries: %q", text)
	}
}

func TestNormalizeQuoteEscaping(t *testing.T) {
	// A string containing a quote must survive the round trip through
	// re-quoting when structural (after LIKE).
	text, _, _, err := Normalize(`SELECT x FROM t WHERE name LIKE 'o''brien%'`)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(text, `'o''brien%'`) {
		t.Fatalf("quote escaping lost: %q", text)
	}
	// And as a lifted argument the raw value is preserved.
	_, args, _, err := Normalize(`SELECT x FROM t WHERE name = 'o''brien'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 1 || !value.Equal(args[0], value.Str("o'brien")) {
		t.Fatalf("args = %v", args)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
