// Package rankedset implements the RANK index substrate (Appendix B): a
// probabilistic augmented skip list persisted in the key-value store that
// supports efficient rank-of-key and key-of-rank queries.
//
// Each level has a distinct subspace prefix; the lowest level contains every
// member, and each entry stores the number of level-0 members in the
// half-open interval from itself to the next entry on the same level.
// Following a same-level "finger" accumulates that count, yielding the rank
// — FoundationDB's key ordering supplies the fingers for free (the paper's
// Figure 5).
//
// Rank and select queries descend from the top level with one range read per
// level, over the finger chosen on the level above, so each costs one round
// trip per level; a select reads the whole finger, past its target.
//
// Per §10.1, navigation reads the skip list at snapshot isolation and adds
// read conflicts only on the distinguished keys that would actually
// invalidate the operation; counts are updated with atomic ADDs so
// concurrent inserts sharing a finger do not conflict.
package rankedset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"recordlayer/internal/fdb"
	"recordlayer/internal/subspace"
	"recordlayer/internal/tuple"
)

// Config parameterizes a ranked set.
type Config struct {
	// Levels is the number of skip-list levels (default 6).
	Levels int
	// LevelFunc decides whether a key appears on the given level (level 0 is
	// implicit). The default hashes the key so that each level keeps roughly
	// 1/16 of the level below, deterministically.
	LevelFunc func(key []byte, level int) bool
}

// DefaultLevels is the default number of skip-list levels.
const DefaultLevels = 6

// hashLevelFunc is the default deterministic level assignment: a key appears
// on level l iff the top bits of its hash have l leading zero hex digits.
func hashLevelFunc(key []byte, level int) bool {
	h := fnv.New64a()
	h.Write(key)
	v := h.Sum64()
	for i := 0; i < level; i++ {
		if v&0xF != 0 {
			return false
		}
		v >>= 4
	}
	return true
}

// RankedSet is a persistent ordered set with rank queries. The zero value is
// not usable; construct with New.
type RankedSet struct {
	space  subspace.Subspace
	levels int
	inLvl  func(key []byte, level int) bool
}

// New creates a ranked set over the given subspace.
func New(space subspace.Subspace, cfg *Config) *RankedSet {
	levels := DefaultLevels
	inLvl := hashLevelFunc
	if cfg != nil {
		if cfg.Levels > 0 {
			levels = cfg.Levels
		}
		if cfg.LevelFunc != nil {
			inLvl = cfg.LevelFunc
		}
	}
	return &RankedSet{space: space, levels: levels, inLvl: inLvl}
}

// head is the pseudo-entry present on every level with the empty key; its
// count covers members preceding the first real entry of that level.
var head = []byte{}

func (rs *RankedSet) levelKey(level int, key []byte) []byte {
	return rs.space.Pack(tuple.Tuple{int64(level), key})
}

func (rs *RankedSet) levelRange(level int) (begin, end []byte) {
	return rs.space.RangeForTuple(tuple.Tuple{int64(level)})
}

func encodeCount(n int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(n))
	return b
}

func decodeCount(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// Init creates the head entries; call once per subspace (idempotent). The
// per-level existence probes are issued together, so initialization costs one
// latency window instead of one per level.
func (rs *RankedSet) Init(tr *fdb.Transaction) error {
	futs := make([]*fdb.FutureValue, rs.levels)
	for l := 0; l < rs.levels; l++ {
		futs[l] = tr.Snapshot().GetAsync(rs.levelKey(l, head))
	}
	for l, fut := range futs {
		v, err := fut.Get()
		if err != nil {
			return err
		}
		if v == nil {
			if err := tr.Set(rs.levelKey(l, head), encodeCount(0)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Contains reports membership. The read conflicts only on the member's own
// level-0 key.
func (rs *RankedSet) Contains(tr *fdb.Transaction, key []byte) (bool, error) {
	if len(key) == 0 {
		return false, fmt.Errorf("rankedset: empty key is reserved")
	}
	v, err := tr.Get(rs.levelKey(0, key))
	if err != nil {
		return false, err
	}
	return v != nil, nil
}

// sumBelow sums, at the given level, the counts of entries in [from, to) —
// the number of level-0 members in that key interval, provided both bounds
// are entries of this level (or head).
func (rs *RankedSet) sumBelow(tr *fdb.Transaction, level int, from, to []byte) (int64, error) {
	begin := rs.levelKey(level, from)
	end := rs.levelKey(level, to)
	kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, kv := range kvs {
		sum += decodeCount(kv.Value)
	}
	return sum, nil
}

// Insert adds a member; it is a no-op if already present (first return
// false). Built on the pipelined Async path: the membership probe and every
// level's floor read go out together, so one insert costs ~1 latency window
// plus any finger-split sums, instead of one window per level.
func (rs *RankedSet) Insert(tr *fdb.Transaction, key []byte) (bool, error) {
	op, err := rs.Async(tr).IssueInsert(key)
	if err != nil {
		return false, err
	}
	return op.Apply()
}

// Delete removes a member; no-op when absent (first return false). Pipelined
// like Insert.
func (rs *RankedSet) Delete(tr *fdb.Transaction, key []byte) (bool, error) {
	op, err := rs.Async(tr).IssueDelete(key)
	if err != nil {
		return false, err
	}
	return op.Apply()
}

// Rank returns the 0-based ordinal rank of key. The second result is false
// when the key is not a member. The membership probe overlaps the descent
// instead of gating it, saving its latency window; a non-member pays the
// descent's snapshot reads (the serial check skipped them), which add no
// conflict ranges.
func (rs *RankedSet) Rank(tr *fdb.Transaction, key []byte) (int64, bool, error) {
	if len(key) == 0 {
		return 0, false, fmt.Errorf("rankedset: empty key is reserved")
	}
	fut := tr.GetAsync(rs.levelKey(0, key))
	r, rerr := rs.CountLess(tr, key)
	v, err := fut.Get()
	if err != nil {
		return 0, false, err
	}
	if v == nil {
		return 0, false, nil
	}
	if rerr != nil {
		return 0, false, rerr
	}
	return r, true, nil
}

// CountLess returns how many members sort strictly before key (key need not
// be a member) — the rank a new member would take. It descends reading each
// level only up to key: the last entry before key has the finger covering it,
// so every entry ahead of it is passed. At level 0 that entry is the last
// member before key (or head, which counts zero), so its count completes the
// rank.
func (rs *RankedSet) CountLess(tr *fdb.Transaction, key []byte) (int64, error) {
	_, passed, count, err := rs.descend(tr, key, func(_, _ int64, last bool) bool { return last })
	return passed + count, err
}

// Select returns the member with the given 0-based rank; ok=false when rank
// is out of range. It descends toward the first finger whose counts reach past
// rank, reading each level's finger whole, so it costs one window per level.
func (rs *RankedSet) Select(tr *fdb.Transaction, rank int64) ([]byte, bool, error) {
	if rank < 0 {
		return nil, false, nil
	}
	member, _, _, err := rs.descend(tr, nil, func(passed, count int64, _ bool) bool {
		return passed+count > rank
	})
	if err != nil || member == nil {
		return nil, false, err
	}
	return member, true, nil
}

// descend performs the skip-list descent of Figure 5(b) with one snapshot
// range read per level. At each level it reads the finger [cur, bound): bound
// starts as limit (nil reads to the level's end) and becomes the successor of
// the entry chosen on the level above. Entries are passed, their counts summed
// into passed, until stop holds for one (last marks the final entry read);
// that entry becomes cur, and the entry after it in the same read, if any,
// becomes the bound. It returns the level-0 entry chosen with its count and the
// members passed before it. When stop holds for no entry at the top level the
// target lies past the end and cur is nil; below the top level that means the
// counts disagree with the level above, and descend returns an error.
func (rs *RankedSet) descend(tr *fdb.Transaction, limit []byte, stop func(passed, count int64, last bool) bool) (cur []byte, passed, count int64, err error) {
	cur, bound := head, limit
	for l := rs.levels - 1; l >= 0; l-- {
		begin := rs.levelKey(l, cur)
		_, end := rs.levelRange(l)
		if bound != nil {
			end = rs.levelKey(l, bound)
		}
		kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
		if err != nil {
			return nil, 0, 0, err
		}
		i := 0
		for ; i < len(kvs); i++ {
			count = decodeCount(kvs[i].Value)
			if stop(passed, count, i == len(kvs)-1) {
				break
			}
			passed += count
		}
		if i == len(kvs) {
			if l == rs.levels-1 {
				return nil, 0, 0, nil
			}
			return nil, 0, 0, fmt.Errorf("rankedset: level %d finger at %q falls short of its count on level %d", l, cur, l+1)
		}
		if cur, err = rs.entryKey(kvs[i].Key); err != nil {
			return nil, 0, 0, err
		}
		if i+1 < len(kvs) {
			if bound, err = rs.entryKey(kvs[i+1].Key); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return cur, passed, count, nil
}

// entryKey extracts the member key from a packed level entry.
func (rs *RankedSet) entryKey(packed []byte) ([]byte, error) {
	t, err := rs.space.Unpack(packed)
	if err != nil {
		return nil, err
	}
	return t[1].([]byte), nil
}

// Size returns the number of members.
func (rs *RankedSet) Size(tr *fdb.Transaction) (int64, error) {
	top := rs.levels - 1
	begin, end := rs.levelRange(top)
	kvs, _, err := tr.Snapshot().GetRange(begin, end, fdb.RangeOptions{})
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, kv := range kvs {
		sum += decodeCount(kv.Value)
	}
	return sum, nil
}

// Clear removes all state, including head entries.
func (rs *RankedSet) Clear(tr *fdb.Transaction) error {
	begin, end := rs.space.Range()
	return tr.ClearRange(begin, end)
}
