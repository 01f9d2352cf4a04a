package wire

import "testing"

func TestStringers(t *testing.T) {
	if got := (TxnID{Client: 7, Seq: 42}).String(); got != "7.42" {
		t.Fatalf("TxnID = %q", got)
	}
	statuses := map[TxnStatus]string{
		StatusUnknown:   "UNKNOWN",
		StatusPrepared:  "PREPARED",
		StatusCommitted: "COMMITTED",
		StatusAborted:   "ABORTED",
	}
	for s, want := range statuses {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	reasons := []AbortReason{AbortNone, AbortReadPrepared, AbortReadStale, AbortWritePrepared, AbortLateWriteRead, AbortLateWrite, AbortOther}
	seen := map[string]bool{}
	for _, r := range reasons {
		s := r.String()
		if s == "" || seen[s] {
			t.Fatalf("reason %d has empty/duplicate name %q", r, s)
		}
		seen[s] = true
	}
	if NumAbortReasons != len(reasons) {
		t.Fatalf("NumAbortReasons = %d, want %d", NumAbortReasons, len(reasons))
	}
}
