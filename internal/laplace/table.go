package laplace

// Magnitude table. The datapath's map from a B_u-bit draw m to its
// magnitude step k (Fig. 3: URNG → log → scale → round) is a pure
// function of the configuration and the log unit. For the shared
// default CORDIC core, Init fetches a table of that map, one per
// (FxPParams, scaling datapath), and SampleK reads it instead of
// running the 30-stage CORDIC. Each entry is magnitudeK of its draw,
// evaluated the first time any sampler of the configuration draws it,
// so outputs are bit-identical by construction, every draw consumes
// the same URNG words, and a configuration pays for at most as many
// evaluations as it draws: a DP-Box reconfigured for a handful of
// reports never evaluates the whole map.
//
// Any other log unit keeps per-draw evaluation: a wrapped unit may
// depend on more than the draw (the fault plane's injector depends on
// the cycle) or count its evaluations (the DP-Box telemetry), and
// custom units (FloatLog, poly, a caller's own CORDIC core) are not
// shared. So does any B_u above tableMaxBu.
//
// The memo is process-wide and safe for concurrent use: concurrent
// Inits of one configuration share a single table, whose entries are
// atomic, so samplers on different goroutines fill it together.
// Tables are evicted least recently used once the memo exceeds either
// an entry count or a total-word budget, like the analyzer cache in
// internal/core; a sampler keeps the table it fetched.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"ulpdp/internal/cordic"
)

const (
	// tableMaxBu is the widest draw a table covers: 2^20 entries, a
	// 4 MiB table.
	tableMaxBu = 20
	// tableMaxEntries bounds the number of memoized tables.
	tableMaxEntries = 16
	// tableMaxWords bounds the memo's total entries (4 bytes each),
	// four tables at tableMaxBu.
	tableMaxWords = 1 << 22
)

// magTable is one configuration's magnitude map: k[m-1] holds 1 + the
// step for draw m ∈ [1, 2^Bu], or 0 while m has not been drawn.
type magTable struct{ k []atomic.Int32 }

type tableKey struct {
	par FxPParams
	hw  bool // integer scaling datapath
}

type tableEntry struct {
	key tableKey
	tab *magTable
}

var (
	tableMu    sync.Mutex
	tableByKey = map[tableKey]*list.Element{}
	tableLRU   list.List // front = most recently used
	tableWords int
)

// tabulable reports whether a sampler on log with parameters par reads
// a memoized table.
func tabulable(par FxPParams, log LogUnit) bool {
	return log == LogUnit(cordic.Default()) && par.Bu <= tableMaxBu
}

// fetchTable returns the memoized magnitude table of the configuration
// (par, hw), creating an empty one on first use.
func fetchTable(par FxPParams, hw bool) *magTable {
	key := tableKey{par: par, hw: hw}
	tableMu.Lock()
	defer tableMu.Unlock()
	if el, ok := tableByKey[key]; ok {
		tableLRU.MoveToFront(el)
		return el.Value.(*tableEntry).tab
	}
	tab := &magTable{k: make([]atomic.Int32, 1<<par.Bu)}
	tableByKey[key] = tableLRU.PushFront(&tableEntry{key: key, tab: tab})
	tableWords += len(tab.k)
	for (len(tableByKey) > tableMaxEntries || tableWords > tableMaxWords) && len(tableByKey) > 1 {
		old := tableLRU.Remove(tableLRU.Back()).(*tableEntry)
		delete(tableByKey, old.key)
		tableWords -= len(old.tab.k)
	}
	return tab
}
