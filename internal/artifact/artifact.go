// Package artifact implements a content-addressed on-disk cache for
// expensive derived artifacts: the solved FOO/FLACK keep-plans. Entries are
// addressed by a caller-computed content key (a hex SHA-256 over every input
// that determines the artifact, plus a format version), so a warm cache can
// only ever return bytes that would have been recomputed identically —
// invalidation is by key change, never by mtime.
//
// The store is deliberately ignorant of what it holds: payloads are opaque
// byte streams namespaced by a short kind string ("plan"). Each entry is
// written atomically (temp + fsync + rename via
// telemetry.AtomicWriteFile) with a SHA-256 integrity trailer, and every
// read verifies the trailer before a single payload byte reaches the
// caller, so a torn or bit-rotted file surfaces as a descriptive error —
// and is removed so the next run recomputes — never as silently wrong
// simulation results.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"uopsim/internal/telemetry"
)

// hashLen is the length of the SHA-256 integrity trailer.
const hashLen = sha256.Size

// KindStats counts one kind's cache traffic for manifests and logs.
type KindStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Errors uint64 `json:"errors"`
}

// Store is a content-addressed artifact cache rooted at one directory.
// Entries live at <dir>/<kind>/<key[:2]>/<key>.bin. All methods are safe
// for concurrent use; concurrent writers of the same key settle on one
// complete entry (last atomic rename wins, both renames carry identical
// content by construction).
type Store struct {
	dir string

	mu      sync.Mutex
	kinds   map[string]*KindStats
	metrics *telemetry.Registry
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open cache: %w", err)
	}
	return &Store{dir: dir, kinds: make(map[string]*KindStats)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// AttachMetrics mirrors the store's per-kind hit/miss/error counts into the
// registry as <kind>_cache_{hit,miss,error}_total counters.
func (s *Store) AttachMetrics(m *telemetry.Registry) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// Stats snapshots the per-kind traffic counts accumulated so far.
func (s *Store) Stats() map[string]KindStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]KindStats, len(s.kinds))
	for k, v := range s.kinds {
		out[k] = *v
	}
	return out
}

// Kinds returns the kinds seen so far, sorted, for deterministic reporting.
func (s *Store) Kinds() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.kinds))
	for k := range s.kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// count records one event ("hit", "miss", "error") for a kind, mirroring it
// into the attached metrics registry when present. Registry metric names
// must be compile-time constants (the telemetry lint contract), so only the
// known kinds are mirrored; unknown kinds still land in Stats().
func (s *Store) count(kind, event string) {
	s.mu.Lock()
	ks, ok := s.kinds[kind]
	if !ok {
		ks = &KindStats{}
		s.kinds[kind] = ks
	}
	switch event {
	case "hit":
		ks.Hits++
	case "miss":
		ks.Misses++
	default:
		ks.Errors++
	}
	m := s.metrics
	s.mu.Unlock()
	if m == nil {
		return
	}
	switch {
	case kind == "plan" && event == "hit":
		m.Counter("plan_cache_hit_total").Inc()
	case kind == "plan" && event == "miss":
		m.Counter("plan_cache_miss_total").Inc()
	case kind == "plan":
		m.Counter("plan_cache_error_total").Inc()
	}
}

// path maps (kind, key) to the entry's location, fanning entries out over
// 256 subdirectories so huge caches do not produce huge directories.
func (s *Store) path(kind, key string) (string, error) {
	if kind == "" || key == "" {
		return "", fmt.Errorf("artifact: empty kind or key")
	}
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(s.dir, kind, prefix, key+".bin"), nil
}

// Get streams a cached artifact's payload into read. It returns (true, nil)
// on a verified hit, (false, nil) on a clean miss, and (false, err) when an
// entry exists but is corrupt, truncated, or unreadable — the broken entry
// is removed so the next run recomputes it. The payload's integrity trailer
// is verified in full BEFORE read sees any bytes.
func (s *Store) Get(kind, key string, read func(r io.Reader) error) (bool, error) {
	p, err := s.path(kind, key)
	if err != nil {
		s.count(kind, "error")
		return false, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			s.count(kind, "miss")
			return false, nil
		}
		s.count(kind, "error")
		return false, fmt.Errorf("artifact: read %s/%s: %w", kind, key, err)
	}
	if len(data) < hashLen {
		s.discard(p)
		s.count(kind, "error")
		return false, fmt.Errorf("artifact: entry %s/%s truncated (%d bytes, want >= %d)", kind, key, len(data), hashLen)
	}
	payload, trailer := data[:len(data)-hashLen], data[len(data)-hashLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], trailer) {
		s.discard(p)
		s.count(kind, "error")
		return false, fmt.Errorf("artifact: entry %s/%s failed integrity check", kind, key)
	}
	if err := read(bytes.NewReader(payload)); err != nil {
		s.count(kind, "error")
		return false, fmt.Errorf("artifact: decode %s/%s: %w", kind, key, err)
	}
	s.count(kind, "hit")
	return true, nil
}

// discard removes a broken entry; removal failure is irrelevant (the entry
// fails verification again next run and is recomputed regardless).
func (s *Store) discard(path string) {
	os.Remove(path)
}

// Put writes an artifact atomically: write streams the payload, the store
// appends the SHA-256 trailer, and the entry only becomes visible under its
// final name once fully durable.
func (s *Store) Put(kind, key string, write func(w io.Writer) error) error {
	p, err := s.path(kind, key)
	if err != nil {
		s.count(kind, "error")
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		s.count(kind, "error")
		return fmt.Errorf("artifact: write %s/%s: %w", kind, key, err)
	}
	err = telemetry.AtomicWriteFile(p, 0o644, func(w io.Writer) error {
		h := sha256.New()
		if err := write(io.MultiWriter(w, h)); err != nil {
			return err
		}
		_, err := w.Write(h.Sum(nil))
		return err
	})
	if err != nil {
		s.count(kind, "error")
		return fmt.Errorf("artifact: write %s/%s: %w", kind, key, err)
	}
	return nil
}
