package blowfish

import (
	"strconv"
	"strings"
	"testing"
)

func newTestSession(t *testing.T) (*Session, *Dataset) {
	t.Helper()
	d, ds := testDataset(t)
	g, err := DistanceThreshold(d, 4)
	if err != nil {
		t.Fatalf("DistanceThreshold: %v", err)
	}
	s, err := NewSession(NewPolicy(g), 1.0, NewSource(5))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	return s, ds
}

func TestSessionSpendsAndEnforcesBudget(t *testing.T) {
	s, ds := newTestSession(t)
	if _, err := s.ReleaseHistogram(ds, 0.4); err != nil {
		t.Fatalf("ReleaseHistogram: %v", err)
	}
	if got := s.Remaining(); got < 0.599 || got > 0.601 {
		t.Fatalf("Remaining = %v, want 0.6", got)
	}
	if _, err := s.NewRangeReleaser(ds, 16, 0.4); err != nil {
		t.Fatalf("NewRangeReleaser: %v", err)
	}
	// Over budget: fails without charging.
	if _, err := s.ReleaseCumulativeHistogram(ds, 0.5); err == nil {
		t.Fatal("over-budget release accepted")
	}
	if got := s.Remaining(); got < 0.199 || got > 0.201 {
		t.Fatalf("failed release charged the budget: remaining %v", got)
	}
	// Exactly the remainder succeeds.
	if _, err := s.PrivateKMeans(ds, 2, 3, 0.2); err != nil {
		t.Fatalf("PrivateKMeans: %v", err)
	}
	// The ledger names every release.
	labels := make([]string, 0, 3)
	for _, r := range s.Accountant().Releases() {
		labels = append(labels, r.Label)
	}
	joined := strings.Join(labels, ",")
	for _, want := range []string{"histogram", "range-releaser", "kmeans|k=2"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("ledger %v missing %q", labels, want)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	d, ds := testDataset(t)
	if _, err := NewSession(nil, 1, NewSource(1)); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewSession(DifferentialPrivacy(d), 0, NewSource(1)); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewSession(DifferentialPrivacy(d), 1, nil); err == nil {
		t.Error("nil source accepted")
	}
	other, err := LineDomain("w", 9)
	if err != nil {
		t.Fatalf("LineDomain: %v", err)
	}
	s, err := NewSession(DifferentialPrivacy(other), 1, NewSource(1))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.ReleaseHistogram(ds, 0.5); err == nil {
		t.Error("foreign-domain dataset accepted")
	}
	if s.Policy().Domain() != other {
		t.Error("Policy accessor wrong")
	}
}

func TestSessionExactPartitionReleaseIsFree(t *testing.T) {
	d, err := LineDomain("v", 8)
	if err != nil {
		t.Fatalf("LineDomain: %v", err)
	}
	part, err := UniformGridPartition(d, []int{2})
	if err != nil {
		t.Fatalf("UniformGridPartition: %v", err)
	}
	coarse, err := UniformGridPartition(d, []int{4})
	if err != nil {
		t.Fatalf("UniformGridPartition: %v", err)
	}
	ds := NewDataset(d)
	for v := 0; v < 8; v++ {
		if err := ds.Add(Point(v)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	s, err := NewSession(NewPolicy(PartitionedSecrets(part)), 1.0, NewSource(3))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// Policy partition refines coarse: sensitivity 0, release exact, free.
	rel, err := s.ReleasePartitionHistogram(ds, coarse, 0.5)
	if err != nil {
		t.Fatalf("ReleasePartitionHistogram: %v", err)
	}
	if s.Remaining() != 1.0 {
		t.Fatalf("exact release charged budget: remaining %v", s.Remaining())
	}
	truth, err := ds.PartitionHistogram(coarse)
	if err != nil {
		t.Fatalf("PartitionHistogram: %v", err)
	}
	for i := range truth {
		if rel[i] != truth[i] {
			t.Fatal("exact release was noisy")
		}
	}
	// Releasing over a partition FINER than the policy's (unit blocks) is
	// noisy and charges the budget.
	fine, err := UniformGridPartition(d, []int{1})
	if err != nil {
		t.Fatalf("UniformGridPartition: %v", err)
	}
	if _, err := s.ReleasePartitionHistogram(ds, fine, 0.5); err != nil {
		t.Fatalf("ReleasePartitionHistogram: %v", err)
	}
	if s.Remaining() != 0.5 {
		t.Fatalf("noisy release not charged: remaining %v", s.Remaining())
	}
}

func TestDatasetCSVThroughFacade(t *testing.T) {
	d, ds := testDataset(t)
	var text strings.Builder
	text.WriteString("v\n")
	for i := 0; i < ds.Len(); i++ {
		text.WriteString(strconv.Itoa(int(ds.At(i))) + "\n")
	}
	back, err := ReadDatasetCSV(d, strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("ReadDatasetCSV: %v", err)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("round trip length %d, want %d", back.Len(), ds.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		if back.At(i) != ds.At(i) {
			t.Fatalf("tuple %d changed: %d vs %d", i, back.At(i), ds.At(i))
		}
	}
}
