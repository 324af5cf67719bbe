package serve

import (
	"crypto/sha256"
	"encoding/hex"

	"hmscs/internal/run"
)

// SpecHash returns an experiment's cache key: the hex SHA-256 of the
// normalized spec's canonical JSON. Normalization (run.Normalize) is the
// foundation of the key's exactness — a zero-valued field and its
// explicitly-written documented default produce the same normalized
// spec, so a minimal {"kind": "simulate"} and a fully spelled-out
// equivalent hash identically and share one cache entry.
//
// One field is cleared before hashing: Run.Shards. It is accepted and
// ignored (every replication runs on one core, DESIGN.md §9), so
// clearing it keeps specs that still carry it on the cache key of the
// same experiment without it.
// Every other spec field participates, which keeps the cache exact:
// equal keys imply equal normalized specs, and the determinism story of
// PRs 1–6 makes equal specs produce byte-identical outcomes.
func SpecHash(e *run.Experiment) (string, error) {
	c := e.Clone()
	c.Normalize()
	c.Run.Shards = 0
	data, err := c.Marshal()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
