package cnfsolver

import "repro/internal/constraints"

// linScratch is linearize's reusable state: the model's oriented pairs as
// successor lists (CSR form: the successors of r are succ[start[r]:
// start[r+1]]), remaining in-degrees, and each thread's ready SAPs.
type linScratch struct {
	thread, rank []int32 // per SAP: thread index and program-order position
	start, fill  []int32
	succ         []int32
	from, to     []int32
	indeg        []int32
	ready        [][]int32
	stack        []int32
	touched      []int32
}

// linearize orders the model's oriented pairs, which include the hard
// edges, with few thread switches. It stays on the running thread while
// that thread has a ready SAP (taking the earliest in program order), and
// otherwise switches to the thread with the longest ready run. A switch
// therefore happens only where the model blocks the running thread, so
// the schedule's preemptions (§4.2) come from the model's orientation
// rather than from the linearization, which is what lets the descent's
// charge count bound them. The caller has checked the pairs acyclic.
func (e *encoder) linearize() []constraints.SAPRef {
	n := e.n
	l := &e.lin
	if l.indeg == nil {
		l.thread = make([]int32, n)
		l.rank = make([]int32, n)
		for t, refs := range e.sys.Threads {
			for i, r := range refs {
				l.thread[r], l.rank[r] = int32(t), int32(i)
			}
		}
		l.start = make([]int32, n+1)
		l.fill = make([]int32, n)
		l.indeg = make([]int32, n)
		l.ready = make([][]int32, len(e.sys.Threads))
	}
	clear(l.start)
	clear(l.indeg)
	l.from, l.to = l.from[:0], l.to[:0]
	for _, idx := range e.pairList {
		a, b := idx/int32(n), idx%int32(n)
		if !e.s.Value(int(e.pairVar[idx])) {
			a, b = b, a
		}
		l.from = append(l.from, a)
		l.to = append(l.to, b)
		l.start[a+1]++
		l.indeg[b]++
	}
	for i := 0; i < n; i++ {
		l.start[i+1] += l.start[i]
	}
	copy(l.fill, l.start[:n])
	if cap(l.succ) < len(l.from) {
		l.succ = make([]int32, len(l.from))
	}
	l.succ = l.succ[:len(l.from)]
	for i, a := range l.from {
		l.succ[l.fill[a]] = l.to[i]
		l.fill[a]++
	}
	for t := range l.ready {
		l.ready[t] = l.ready[t][:0]
	}
	for r := 0; r < n; r++ {
		if l.indeg[r] == 0 {
			l.ready[l.thread[r]] = append(l.ready[l.thread[r]], int32(r))
		}
	}
	order := make([]constraints.SAPRef, 0, n)
	cur := -1
	for len(order) < n {
		if cur < 0 || len(l.ready[cur]) == 0 {
			cur = l.longestRun()
		}
		rs := l.ready[cur]
		bi := 0
		for i := 1; i < len(rs); i++ {
			if l.rank[rs[i]] < l.rank[rs[bi]] {
				bi = i
			}
		}
		r := rs[bi]
		rs[bi] = rs[len(rs)-1]
		l.ready[cur] = rs[:len(rs)-1]
		order = append(order, constraints.SAPRef(r))
		for _, s := range l.succ[l.start[r]:l.start[r+1]] {
			if l.indeg[s]--; l.indeg[s] == 0 {
				l.ready[l.thread[s]] = append(l.ready[l.thread[s]], s)
			}
		}
	}
	return order
}

// longestRun returns the thread that could run the most SAPs, one after
// another, before another thread has to move. Ties go to the lower thread.
func (l *linScratch) longestRun() int {
	best, bestRun := -1, 0
	for t, rs := range l.ready {
		if len(rs) == 0 {
			continue
		}
		run := 0
		l.stack = append(l.stack[:0], rs...)
		l.touched = l.touched[:0]
		for len(l.stack) > 0 {
			r := l.stack[len(l.stack)-1]
			l.stack = l.stack[:len(l.stack)-1]
			run++
			for _, s := range l.succ[l.start[r]:l.start[r+1]] {
				l.indeg[s]--
				l.touched = append(l.touched, s)
				if l.indeg[s] == 0 && l.thread[s] == int32(t) {
					l.stack = append(l.stack, s)
				}
			}
		}
		for _, s := range l.touched {
			l.indeg[s]++
		}
		if run > bestRun {
			best, bestRun = t, run
		}
	}
	return best
}
