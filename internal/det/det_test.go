package det

import (
	"reflect"
	"testing"
)

func TestSortedKeysInts(t *testing.T) {
	m := map[int]string{3: "c", 1: "a", 2: "b", -7: "z"}
	if got, want := SortedKeys(m), []int{-7, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
}

func TestSortedKeysStrings(t *testing.T) {
	m := map[string]int{"queue": 1, "cache": 2, "db": 3}
	if got, want := SortedKeys(m), []string{"cache", "db", "queue"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
}

func TestSortedKeysEmptyAndNil(t *testing.T) {
	if got := SortedKeys(map[int]int{}); len(got) != 0 {
		t.Fatalf("SortedKeys(empty) = %v", got)
	}
	var nilMap map[string]bool
	if got := SortedKeys(nilMap); len(got) != 0 {
		t.Fatalf("SortedKeys(nil) = %v", got)
	}
}

// TestMix64KnownValues pins the finalizer to the SplitMix64 reference
// stream: seeded with 0, the generator's first outputs are
// Mix64(k·0x9e3779b97f4a7c15) for k = 1, 2, 3.
func TestMix64KnownValues(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for k, w := range want {
		if got := Mix64(uint64(k+1) * gamma); got != w {
			t.Errorf("Mix64(%d·gamma) = %#x, want %#x", k+1, got, w)
		}
	}
	if Mix64(0) != 0 {
		t.Errorf("Mix64(0) = %#x, want 0", Mix64(0))
	}
}
