package artifact

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uopsim/internal/telemetry"
)

func openT(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, kind, key string, payload []byte) {
	t.Helper()
	if err := s.Put(kind, key, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatalf("Put(%s/%s): %v", kind, key, err)
	}
}

func get(t *testing.T, s *Store, kind, key string) ([]byte, bool, error) {
	t.Helper()
	var got []byte
	hit, err := s.Get(kind, key, func(r io.Reader) error {
		b, rerr := io.ReadAll(r)
		got = b
		return rerr
	})
	return got, hit, err
}

func TestOpenEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") should fail")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t)
	payload := []byte("columnar bytes")
	put(t, s, "trace", "abcd", payload)
	got, hit, err := get(t, s, "trace", "abcd")
	if err != nil || !hit {
		t.Fatalf("Get: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	st := s.Stats()["trace"]
	if st.Hits != 1 || st.Misses != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 1 hit", st)
	}
}

func TestGetMissIsClean(t *testing.T) {
	s := openT(t)
	_, hit, err := get(t, s, "plan", "nope")
	if hit || err != nil {
		t.Fatalf("missing entry: hit=%v err=%v (want clean miss)", hit, err)
	}
	if st := s.Stats()["plan"]; st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

func TestEmptyKindOrKey(t *testing.T) {
	s := openT(t)
	if _, _, err := get(t, s, "", "k"); err == nil {
		t.Error("Get with empty kind should fail")
	}
	if err := s.Put("trace", "", func(io.Writer) error { return nil }); err == nil {
		t.Error("Put with empty key should fail")
	}
}

// TestCorruptEntryRejectedAndHealed flips one payload bit on disk: the next
// Get must report a descriptive error (never call read) and remove the
// entry, so the Get after that is a clean miss and the artifact is rebuilt.
func TestCorruptEntryRejectedAndHealed(t *testing.T) {
	s := openT(t)
	put(t, s, "trace", "deadbeef", []byte("payload payload payload"))
	p := filepath.Join(s.Dir(), "trace", "de", "deadbeef.bin")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x01
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	readCalled := false
	_, err = s.Get("trace", "deadbeef", func(io.Reader) error {
		readCalled = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("corrupt entry: err=%v, want integrity failure", err)
	}
	if readCalled {
		t.Fatal("read callback saw bytes from a corrupt entry")
	}
	if _, statErr := os.Stat(p); !os.IsNotExist(statErr) {
		t.Fatalf("corrupt entry not removed: %v", statErr)
	}
	if _, hit, err := get(t, s, "trace", "deadbeef"); hit || err != nil {
		t.Fatalf("after self-heal: hit=%v err=%v (want clean miss)", hit, err)
	}
}

// TestTruncatedEntryRejected covers a file shorter than the integrity
// trailer (a torn write from a non-atomic copy).
func TestTruncatedEntryRejected(t *testing.T) {
	s := openT(t)
	p := filepath.Join(s.Dir(), "plan", "ab", "abcd.bin")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := get(t, s, "plan", "abcd")
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated entry: err=%v, want truncation error", err)
	}
	if st := s.Stats()["plan"]; st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 error", st)
	}
}

// TestDecodeErrorCountsAsError: a verified payload whose decoder rejects it
// (e.g. a version bump inside the codec) is an error, not a hit.
func TestDecodeErrorCountsAsError(t *testing.T) {
	s := openT(t)
	put(t, s, "plan", "ffff", []byte("valid bytes, wrong codec"))
	_, err := s.Get("plan", "ffff", func(io.Reader) error {
		return io.ErrUnexpectedEOF
	})
	if err == nil {
		t.Fatal("decode failure should surface as an error")
	}
	if st := s.Stats()["plan"]; st.Hits != 0 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 0 hits 1 error", st)
	}
}

func TestAttachMetricsMirrorsCounters(t *testing.T) {
	s := openT(t)
	reg := telemetry.NewRegistry()
	s.AttachMetrics(reg)
	put(t, s, "trace", "aa", []byte("x"))
	put(t, s, "plan", "bb", []byte("y"))
	get(t, s, "trace", "aa")
	get(t, s, "trace", "zz")
	get(t, s, "plan", "bb")
	get(t, s, "plan", "bb")
	checks := map[string]uint64{
		"plan_cache_hit_total":  2,
		"plan_cache_miss_total": 0,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Kinds without a metric family still land in Stats.
	if st := s.Stats()["trace"]; st.Hits != 1 || st.Misses != 1 {
		t.Errorf("unmirrored kind stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestKindsSorted(t *testing.T) {
	s := openT(t)
	get(t, s, "trace", "x")
	get(t, s, "plan", "x")
	got := s.Kinds()
	if len(got) != 2 || got[0] != "plan" || got[1] != "trace" {
		t.Fatalf("Kinds() = %v, want [plan trace]", got)
	}
}

// TestOverwriteSameKey: writing the same key twice leaves one valid entry
// (content-addressed keys make both writes identical in practice; the store
// must stay readable either way).
func TestOverwriteSameKey(t *testing.T) {
	s := openT(t)
	put(t, s, "trace", "k", []byte("same"))
	put(t, s, "trace", "k", []byte("same"))
	got, hit, err := get(t, s, "trace", "k")
	if !hit || err != nil || string(got) != "same" {
		t.Fatalf("after overwrite: hit=%v err=%v got=%q", hit, err, got)
	}
}
