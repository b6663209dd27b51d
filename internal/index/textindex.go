package index

import (
	"fmt"
	"sort"
	"strconv"

	"recordlayer/internal/bunched"
	"recordlayer/internal/fdb"
	"recordlayer/internal/metadata"
	"recordlayer/internal/text"
	"recordlayer/internal/tuple"
)

// TextMaintainer implements the TEXT index type (Appendix B): an inverted
// index from tokens to the primary keys of records containing them, with
// per-occurrence offset lists, stored in a bunched map. It supports token,
// prefix, phrase and proximity queries, all maintained transactionally with
// the records themselves (§8.1).
type TextMaintainer struct {
	ix        *metadata.Index
	tokenizer text.Tokenizer
	bunchSize int

	// Per-transaction pipelining state: every bunched-map mutation in one
	// transaction must flow through a single bunched.Async so its write log
	// sees them all. Keyed by the transaction so a maintainer reused across
	// transactions starts a fresh overlay.
	asyncTr *fdb.Transaction
	async   *bunched.Async
}

// Index options understood by TEXT indexes.
const (
	OptionTokenizer = "tokenizer"
	OptionBunchSize = "bunch_size"
)

func newTextMaintainer(ix *metadata.Index) (Maintainer, error) {
	if ix.Expression.ColumnCount() != 1 {
		return nil, fmt.Errorf("index %q: text indexes cover exactly one text field", ix.Name)
	}
	tokName := ix.Option(OptionTokenizer, "whitespace")
	tok, ok := text.Lookup(tokName)
	if !ok {
		return nil, fmt.Errorf("index %q: tokenizer %q not registered", ix.Name, tokName)
	}
	bunchSize := bunched.DefaultBunchSize
	if s := ix.Option(OptionBunchSize, ""); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("index %q: invalid bunch_size %q", ix.Name, s)
		}
		bunchSize = n
	}
	return &TextMaintainer{ix: ix, tokenizer: tok, bunchSize: bunchSize}, nil
}

func (m *TextMaintainer) mapFor(ctx *Context) *bunched.Map {
	return bunched.New(ctx.Space, m.bunchSize)
}

// positions tokenizes the record's indexed text field.
func (m *TextMaintainer) positions(r *Record, ix *metadata.Index) (map[string][]int64, error) {
	entries, err := entriesFor(ix, r)
	if err != nil {
		return nil, err
	}
	out := map[string][]int64{}
	for _, e := range entries {
		if len(e) != 1 || e[0] == nil {
			continue
		}
		s, ok := e[0].(string)
		if !ok {
			return nil, fmt.Errorf("index %q: text index over non-string value %T", ix.Name, e[0])
		}
		for tok, offs := range text.PositionsByToken(m.tokenizer.Tokenize(s)) {
			out[tok] = append(out[tok], offs...)
		}
	}
	return out, nil
}

// asyncFor returns the transaction's pipelining overlay.
func (m *TextMaintainer) asyncFor(ctx *Context) *bunched.Async {
	if m.asyncTr != ctx.Tr {
		m.async = m.mapFor(ctx).Async(ctx.Tr)
		m.asyncTr = ctx.Tr
	}
	return m.async
}

// UpdateAsync implements Maintainer: the boundary scans of every token's
// bunch rewrite are issued here; the returned Pending resolves them and
// applies the rewrites. Ops pipeline across records through the shared
// per-transaction overlay, so Pendings must be awaited in issue order.
func (m *TextMaintainer) UpdateAsync(ctx *Context, old, new *Record) (Pending, error) {
	oldPos, err := m.positions(old, ctx.Index)
	if err != nil {
		return nil, err
	}
	newPos, err := m.positions(new, ctx.Index)
	if err != nil {
		return nil, err
	}
	a := m.asyncFor(ctx)
	ops := make([]*bunched.Op, 0, len(oldPos)+len(newPos))
	for tok := range oldPos {
		if _, stillThere := newPos[tok]; !stillThere {
			ops = append(ops, a.IssueDelete(tok, old.PrimaryKey))
		}
	}
	for tok, offs := range newPos {
		ops = append(ops, a.IssueInsert(tok, new.PrimaryKey, offs))
	}
	if len(ops) == 0 {
		return Done, nil
	}
	return pendingFunc(func() error {
		for _, op := range ops {
			if _, err := op.Apply(); err != nil {
				return err
			}
		}
		return nil
	}), nil
}

// Posting is one text-search hit: a record and the token offsets within it.
type Posting struct {
	Token      string
	PrimaryKey tuple.Tuple
	Offsets    []int64
}

// ScanToken returns the postings for an exact token, in primary key order.
func (m *TextMaintainer) ScanToken(ctx *Context, token string) ([]Posting, error) {
	entries, err := m.mapFor(ctx).ScanToken(ctx.Tr, m.normalize(token))
	if err != nil {
		return nil, err
	}
	out := make([]Posting, len(entries))
	for i, e := range entries {
		out[i] = Posting{Token: token, PrimaryKey: e.PK, Offsets: e.Offsets}
	}
	return out, nil
}

// ScanPrefix returns postings for every token with the given prefix,
// leveraging key order for prefix matching with no additional overhead
// (§8.1).
func (m *TextMaintainer) ScanPrefix(ctx *Context, prefix string) ([]Posting, error) {
	tes, err := m.mapFor(ctx).ScanPrefix(ctx.Tr, m.normalize(prefix))
	if err != nil {
		return nil, err
	}
	var out []Posting
	for _, te := range tes {
		for _, e := range te.Entries {
			out = append(out, Posting{Token: te.Token, PrimaryKey: e.PK, Offsets: e.Offsets})
		}
	}
	return out, nil
}

// normalize runs a query token through the tokenizer so matching respects
// the same normalization as indexing.
func (m *TextMaintainer) normalize(token string) string {
	toks := m.tokenizer.Tokenize(token)
	if len(toks) == 1 {
		return toks[0].Text
	}
	return token
}

// ContainsAll returns the primary keys of records containing every token,
// optionally within a proximity window (maxDistance > 0), in primary key
// order.
func (m *TextMaintainer) ContainsAll(ctx *Context, tokens []string, maxDistance int64) ([]tuple.Tuple, error) {
	if len(tokens) == 0 {
		return nil, nil
	}
	perToken := make([]map[string][]int64, len(tokens))
	for i, tok := range tokens {
		ps, err := m.ScanToken(ctx, tok)
		if err != nil {
			return nil, err
		}
		mp := map[string][]int64{}
		for _, p := range ps {
			mp[string(p.PrimaryKey.Pack())] = p.Offsets
		}
		perToken[i] = mp
	}
	var out []tuple.Tuple
	for pkPacked, offs0 := range perToken[0] {
		lists := [][]int64{offs0}
		all := true
		for i := 1; i < len(perToken); i++ {
			offs, ok := perToken[i][pkPacked]
			if !ok {
				all = false
				break
			}
			lists = append(lists, offs)
		}
		if !all {
			continue
		}
		if maxDistance > 0 && !text.MatchProximity(lists, maxDistance) {
			continue
		}
		pk, err := tuple.Unpack([]byte(pkPacked))
		if err != nil {
			return nil, err
		}
		out = append(out, pk)
	}
	sortTuples(out)
	return out, nil
}

// ContainsPhrase returns the primary keys of records containing the exact
// token sequence, in primary key order.
func (m *TextMaintainer) ContainsPhrase(ctx *Context, phrase string) ([]tuple.Tuple, error) {
	toks := m.tokenizer.Tokenize(phrase)
	if len(toks) == 0 {
		return nil, nil
	}
	perToken := make([]map[string][]int64, len(toks))
	for i, tok := range toks {
		ps, err := m.ScanToken(ctx, tok.Text)
		if err != nil {
			return nil, err
		}
		mp := map[string][]int64{}
		for _, p := range ps {
			mp[string(p.PrimaryKey.Pack())] = p.Offsets
		}
		perToken[i] = mp
	}
	var out []tuple.Tuple
	for pkPacked, offs0 := range perToken[0] {
		lists := [][]int64{offs0}
		all := true
		for i := 1; i < len(perToken); i++ {
			offs, ok := perToken[i][pkPacked]
			if !ok {
				all = false
				break
			}
			lists = append(lists, offs)
		}
		if !all || !text.MatchPhrase(lists) {
			continue
		}
		pk, err := tuple.Unpack([]byte(pkPacked))
		if err != nil {
			return nil, err
		}
		out = append(out, pk)
	}
	sortTuples(out)
	return out, nil
}

func sortTuples(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return tuple.Compare(ts[i], ts[j]) < 0 })
}

// Stats exposes the bunched map's storage statistics (Table 2).
func (m *TextMaintainer) Stats(ctx *Context) (bunched.Stats, error) {
	return m.mapFor(ctx).ComputeStats(ctx.Tr)
}

// BunchSize returns the configured bunch size.
func (m *TextMaintainer) BunchSize() int { return m.bunchSize }
