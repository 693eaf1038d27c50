package adversary

import (
	"sync"
	"sync/atomic"

	"repro/internal/placement"
)

// Move names one replica transfer — the unit of work Session.ProbeMoves
// fans out. It mirrors the (obj, from, to) triple Session.Move takes.
type Move struct {
	Obj, From, To int
}

// memoShards is the lock-stripe width of sessionMemo. Probing batches
// run at most a few tens of workers, so 16 stripes keep contention on
// the shared memo negligible without bloating small sessions.
const memoShards = 16

// defaultMemoCap bounds every session memo: large enough that bounded
// workloads (every tracked benchmark, the reconcile goldens) never
// evict — eviction order is publish order, which parallel probing does
// not fix, so the determinism contract is strongest when the cap is
// not reached — yet a hard ceiling on a years-long reconcile loop's
// memory.
const defaultMemoCap = 1 << 16

// memoShard is one stripe: a signature→result map plus the FIFO queue
// its evictions follow.
type memoShard struct {
	mu   sync.Mutex
	m    map[placement.Sig]SessionResult
	fifo []placement.Sig
	head int
}

// sessionMemo is the sharded, lock-striped damage memo a Session and
// every fork of it share: exact results published by any worker are
// hits for all. Entries are only ever written once per signature (exact
// damage is a pure function of the placement, so concurrent publishers
// agree) and evicted FIFO per shard once the capacity cap is reached.
type sessionMemo struct {
	shardCap int // per-shard entry cap
	evicted  atomic.Int64
	shards   [memoShards]memoShard
}

// newSessionMemo sizes a memo for a total capacity of cap > 0 entries,
// spread over the shards.
func newSessionMemo(cap int) *sessionMemo {
	return &sessionMemo{shardCap: (cap + memoShards - 1) / memoShards}
}

func (sm *sessionMemo) shard(sig placement.Sig) *memoShard {
	return &sm.shards[sig.Lo%memoShards]
}

// get returns the memoized result for sig, if present. The result's
// slices are shared — callers copy before handing them out (copyOut).
func (sm *sessionMemo) get(sig placement.Sig) (SessionResult, bool) {
	sh := sm.shard(sig)
	sh.mu.Lock()
	res, ok := sh.m[sig]
	sh.mu.Unlock()
	return res, ok
}

// put publishes an exact result under sig. The first publisher wins;
// a duplicate publish (two workers finishing the same placement) is
// dropped, keeping the FIFO queue and the map in lockstep. Crossing the
// capacity cap evicts the shard's oldest entry.
func (sm *sessionMemo) put(sig placement.Sig, res SessionResult) {
	sh := sm.shard(sig)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[placement.Sig]SessionResult)
	}
	if _, ok := sh.m[sig]; ok {
		return
	}
	sh.m[sig] = res
	sh.fifo = append(sh.fifo, sig)
	if len(sh.m) > sm.shardCap {
		delete(sh.m, sh.fifo[sh.head])
		sh.head++
		sm.evicted.Add(1)
		// Compact the queue once the dead prefix dominates it.
		if sh.head > len(sh.fifo)/2 {
			sh.fifo = append(sh.fifo[:0], sh.fifo[sh.head:]...)
			sh.head = 0
		}
	}
}
