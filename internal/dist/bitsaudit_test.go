package dist

import (
	"strings"
	"testing"
)

// TestAuditPayloadFields exercises the conformance helper itself: the
// passing case, the three failure modes, and the per-element charging of
// slice and array fields.
func TestAuditPayloadFields(t *testing.T) {
	type msg struct {
		ids  []int
		r    int64
		n    int
		flag bool
	}
	m := msg{ids: []int{1, 2, 3}, r: 9, n: 64, flag: true}
	ok := map[string]int{"ids": 6, "r": 24, "n": 0, "flag": 1}
	bits := 3*6 + 24 + 1
	if err := AuditPayloadFields(m, bits, ok); err != nil {
		t.Fatalf("conforming payload rejected: %v", err)
	}
	// Undercount: Bits below the field minimum.
	if err := AuditPayloadFields(m, bits-1, ok); err == nil || !strings.Contains(err.Error(), "under-accounts") {
		t.Fatalf("undercount not caught: %v", err)
	}
	// A field with no accounting entry (the "field added without
	// accounting" CI guard).
	missing := map[string]int{"ids": 6, "r": 24, "n": 0}
	if err := AuditPayloadFields(m, bits, missing); err == nil || !strings.Contains(err.Error(), "no accounting entry") {
		t.Fatalf("unaccounted field not caught: %v", err)
	}
	// A stale table naming a field the struct no longer has.
	stale := map[string]int{"ids": 6, "r": 24, "n": 0, "flag": 1, "gone": 8}
	if err := AuditPayloadFields(m, bits, stale); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("stale audit entry not caught: %v", err)
	}
	// Non-struct payloads are rejected.
	if err := AuditPayloadFields(42, 1, nil); err == nil {
		t.Fatal("non-struct payload accepted")
	}
	// Array-element charging: [2]int arrays count per element.
	type pairMsg struct{ vs [][2]int }
	pm := pairMsg{vs: [][2]int{{1, 2}, {3, 4}}}
	if err := AuditPayloadFields(pm, 2*12, map[string]int{"vs": 12}); err != nil {
		t.Fatalf("pair payload rejected: %v", err)
	}
}

// TestAuditPayloadFieldsEmbedded pins the embedded-struct and
// unexported-field semantics the static bitsacct analyzer mirrors: an
// embedded struct is one field under its type name, charged once (its own
// promoted fields are audited where the inner type's Bits lives), and
// unexported fields are billed like any other — the wire records transmit
// them all. The struct shapes deliberately match the bitsacct golden
// fixtures under internal/analysis/testdata/src/bitsacct, so the static
// and runtime audits are exercised against the same contract.
func TestAuditPayloadFieldsEmbedded(t *testing.T) {
	type header struct {
		Tag int
	}
	type goodMsg struct {
		header
		ids  []int
		full bool
	}
	m := goodMsg{header: header{Tag: 3}, ids: []int{4, 5}, full: true}
	bits := 8 + 2*32 + 1
	ok := map[string]int{"header": 8, "ids": 32, "full": 1}
	if err := AuditPayloadFields(m, bits, ok); err != nil {
		t.Fatalf("conforming embedded payload rejected: %v", err)
	}
	// The embedded struct is one field named after its type; a table
	// that forgets it fails under that name — the same name the static
	// analyzer reports for an unreferenced embedded field.
	noHeader := map[string]int{"ids": 32, "full": 1}
	if err := AuditPayloadFields(m, bits, noHeader); err == nil ||
		!strings.Contains(err.Error(), `"header"`) || !strings.Contains(err.Error(), "no accounting entry") {
		t.Fatalf("missing embedded-field entry not caught: %v", err)
	}
	// Unexported fields need entries too.
	noIds := map[string]int{"header": 8, "full": 1}
	if err := AuditPayloadFields(m, bits, noIds); err == nil ||
		!strings.Contains(err.Error(), `"ids"`) || !strings.Contains(err.Error(), "no accounting entry") {
		t.Fatalf("missing unexported-field entry not caught: %v", err)
	}
	// Undercounting the embedded contribution is an undercount like any
	// other: the header's 8 bits are part of the minimum.
	if err := AuditPayloadFields(m, bits-8, ok); err == nil || !strings.Contains(err.Error(), "under-accounts") {
		t.Fatalf("embedded undercount not caught: %v", err)
	}
}
