// Package bench defines the paper's eleven evaluation programs
// re-expressed in the mini language, plus the harnesses that regenerate
// Tables 1, 2 and 3.
//
// Each program reproduces the bug *pattern* of its namesake (§6 of the
// paper): pbzip2's order violation on a destroyed mutex, apache #45605's
// multi-variable atomicity violation on a shared queue, racey's
// intentional races designed to need many context switches, and the
// SC-correct/TSO-PSO-broken mutual exclusion algorithms. Workload sizes
// are scaled to this repository's simulator substrate; Table shapes — who
// wins, which program is the outlier — are what must match the paper.
package bench

import "repro/internal/vm"

// Benchmark describes one evaluation program.
type Benchmark struct {
	Name string
	// Source is the mini-language program.
	Source string
	// Model is the memory model under which the bug manifests.
	Model vm.MemModel
	// SeedLimit bounds the record phase's bug hunt.
	SeedLimit int64
	// Inputs parameterize the workload (input(0) is the main size knob).
	Inputs []int64
	// Table2Inputs is the heavier workload used for the overhead
	// comparison (defaults to Inputs).
	Table2Inputs []int64
	// ParallelBound is the largest preemption bound the parallel solver
	// sweeps for Table 3.
	ParallelBound int
	// Description ties the program to the paper's benchmark.
	Description string
}

// All returns the eleven benchmarks in Table 1 order.
func All() []Benchmark {
	return []Benchmark{
		{
			Name:          "sim_race",
			Source:        simRaceSrc,
			Model:         vm.SC,
			SeedLimit:     4000,
			Table2Inputs:  []int64{400},
			ParallelBound: 4,
			Description:   "simple racey program [16]: 4 racer threads on two shared variables",
		},
		{
			Name:          "pbzip2",
			Source:        pbzip2Src,
			Model:         vm.SC,
			SeedLimit:     4000,
			Inputs:        []int64{3},
			Table2Inputs:  []int64{24},
			ParallelBound: 4,
			Description:   "order violation: main invalidates the FIFO mutex while consumers still use it",
		},
		{
			Name:          "aget",
			Source:        agetSrc,
			Model:         vm.SC,
			SeedLimit:     4000,
			Inputs:        []int64{8},
			Table2Inputs:  []int64{400},
			ParallelBound: 4,
			Description:   "parallel downloader: racy chunk cursor and progress accounting",
		},
		{
			Name:          "bbuf",
			Source:        bbufSrc,
			Model:         vm.SC,
			SeedLimit:     6000,
			Inputs:        []int64{1},
			Table2Inputs:  []int64{10},
			ParallelBound: 4,
			Description:   "bounded buffer with an if-instead-of-while wait: consumes an empty slot",
		},
		{
			Name:          "swarm",
			Source:        swarmSrc,
			Model:         vm.SC,
			SeedLimit:     4000,
			Inputs:        []int64{6},
			Table2Inputs:  []int64{48},
			ParallelBound: 4,
			Description:   "parallel sort: workers merge partition sums without synchronization",
		},
		{
			Name:          "pfscan",
			Source:        pfscanSrc,
			Model:         vm.SC,
			SeedLimit:     4000,
			Inputs:        []int64{6},
			Table2Inputs:  []int64{40},
			ParallelBound: 4,
			Description:   "parallel file scanner: locked work queue, racy match aggregation",
		},
		{
			Name:          "apache",
			Source:        apacheSrc,
			Model:         vm.SC,
			SeedLimit:     8000,
			Inputs:        []int64{2},
			Table2Inputs:  []int64{60},
			ParallelBound: 4,
			Description:   "bug #45605: multi-variable atomicity violation between listener and workers on the request queue",
		},
		{
			Name:          "racey",
			Source:        raceySrc,
			Model:         vm.SC,
			SeedLimit:     4000,
			Inputs:        []int64{5, 4},
			Table2Inputs:  []int64{800, 6},
			ParallelBound: 3,
			Description:   "deterministic-replay stress test [38]: the failure needs many lost updates, i.e. many context switches",
		},
		{
			Name:          "bakery",
			Source:        bakerySrc,
			Model:         vm.PSO,
			SeedLimit:     20000,
			ParallelBound: 4,
			Description:   "Lamport's bakery: correct under SC, broken by PSO write reordering",
		},
		{
			Name:          "dekker",
			Source:        dekkerSrc,
			Model:         vm.TSO,
			SeedLimit:     8000,
			ParallelBound: 4,
			Description:   "Dekker's algorithm: correct under SC, broken by TSO store buffering",
		},
		{
			Name:          "peterson",
			Source:        petersonSrc,
			Model:         vm.TSO,
			SeedLimit:     8000,
			ParallelBound: 4,
			Description:   "Peterson's algorithm: correct under SC, broken by TSO store buffering",
		},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

const simRaceSrc = `
// sim_race: the paper's "simple racey program" — four threads race on two
// shared variables with plain read-modify-write updates. input(0) scales
// the per-thread rounds (default 1).
int x;
int y;

func racer(v, n) {
	int i;
	for (i = 0; i < n; i = i + 1) {
		int t = x;
		x = t + v;
		int u = y;
		y = u + v;
	}
}

func main() {
	int n = input(0);
	if (n == 0) { n = 1; }
	int h1 = spawn racer(1, n);
	int h2 = spawn racer(2, n);
	int h3 = spawn racer(3, n);
	int h4 = spawn racer(4, n);
	join(h1);
	join(h2);
	join(h3);
	join(h4);
	int fx = x;
	int fy = y;
	assert(fx == 10 * n && fy == 10 * n, "updates lost");
}
`

const pbzip2Src = `
// pbzip2: the main thread tears down the FIFO's mutex state while consumer
// threads are still using it — the frequently studied order violation.
// mu_valid stands for the mutex object the real pbzip2 nulls out.
int fifo[8];
int head;
int tail;
int mu_valid = 1;
int consumed;
mutex m;
cond nonempty;

func consumer() {
	lock(m);
	while (head == tail) {
		wait(nonempty, m);
	}
	int item = fifo[head % 8];
	head = head + 1;
	unlock(m);
	int v = mu_valid;
	// The real crash: using the queue mutex after main destroyed it.
	assert(v == 1, "fifo mutex used after destruction");
	consumed = consumed + item;
}

func main() {
	int n = input(0);
	if (n == 0) { n = 3; }
	if (n > 8) { n = 8; }
	int i;
	// Produce n items up front so consumers never block forever.
	lock(m);
	for (i = 0; i < n; i = i + 1) {
		fifo[tail % 8] = i + 100;
		tail = tail + 1;
		signal(nonempty);
	}
	unlock(m);
	int h1 = spawn consumer();
	int h2 = spawn consumer();
	int h3 = spawn consumer();
	// BUG: tear down the mutex state before the consumers are done.
	mu_valid = 0;
	join(h1);
	join(h2);
	join(h3);
}
`

const agetSrc = `
// aget: parallel downloader. Worker threads claim chunks through a shared
// cursor and add to the progress counter; neither is protected, so chunk
// claims duplicate and progress updates get lost.
int cursor;
int progress;
int chunkdone[64];

func dl(id) {
	int more = 1;
	while (more == 1) {
		int c = cursor;
		if (c >= input(0)) {
			more = 0;
		} else {
			cursor = c + 1;
			chunkdone[c % 64] = id;
			int p = progress;
			progress = p + 100;
		}
	}
}

func main() {
	int n = input(0);
	int h1 = spawn dl(1);
	int h2 = spawn dl(2);
	int h3 = spawn dl(3);
	join(h1);
	join(h2);
	join(h3);
	int got = progress;
	assert(got == n * 100, "download accounting lost updates");
}
`

const bbufSrc = `
// bbuf: shared bounded buffer. The consumer checks "count == 0" with an
// if instead of a while, so a woken consumer whose item was stolen reads
// an empty slot — the classic seeded condition-variable bug.
int buf[4];
int takein;
int takeout;
int count;
int bad;
mutex m;
cond notempty;

func producer(n) {
	int i;
	for (i = 0; i < n; i = i + 1) {
		lock(m);
		if (count < 4) {
			buf[takein % 4] = i + 1;
			takein = takein + 1;
			count = count + 1;
			signal(notempty);
		}
		unlock(m);
	}
}

func consumer(n) {
	int i;
	for (i = 0; i < n; i = i + 1) {
		lock(m);
		if (count == 0) {
			wait(notempty, m);
		}
		// BUG: count may still be zero here (another consumer won the race).
		int item = buf[takeout % 4];
		if (count > 0) {
			takeout = takeout + 1;
			count = count - 1;
		} else {
			bad = 1;
		}
		unlock(m);
		if (item == 0) { bad = 1; }
	}
}

func main() {
	int n = input(0);
	if (n == 0) { n = 2; }
	int p1 = spawn producer(n);
	int p2 = spawn producer(n);
	int c1 = spawn consumer(n);
	int c2 = spawn consumer(n);
	join(p1);
	join(p2);
	join(c1);
	join(c2);
	int b = bad;
	assert(b == 0, "consumer took an empty slot");
}
`

const swarmSrc = `
// swarm: parallel sort. Two workers locally sort their halves (real local
// work) and publish partition sums without synchronization; the merge
// check in main catches the lost update.
int data[64];
int total;
int ready;

func worker(lo, hi) {
	// Local selection sort on [lo, hi) — thread-local array region in the
	// real program; here the races are confined to total/ready.
	int i;
	int sum = 0;
	for (i = lo; i < hi; i = i + 1) {
		int best = i;
		int j;
		for (j = i + 1; j < hi; j = j + 1) {
			if (data[j] < data[best]) { best = j; }
		}
		int tmp = data[i];
		data[i] = data[best];
		data[best] = tmp;
		sum = sum + data[i];
	}
	int t = total;
	total = t + sum;
	int r = ready;
	ready = r + 1;
}

func main() {
	int n = input(0);
	if (n == 0) { n = 6; }
	if (n > 32) { n = 32; }
	int i;
	int expect = 0;
	for (i = 0; i < 2 * n; i = i + 1) {
		data[i] = (7 * i + 3) % 50;
		expect = expect + data[i];
	}
	int h1 = spawn worker(0, n);
	int h2 = spawn worker(n, 2 * n);
	join(h1);
	join(h2);
	int got = total;
	assert(got == expect, "partition sums lost an update");
}
`

const pfscanSrc = `
// pfscan: parallel file scanner. The work queue is properly locked, but
// the global match counter is aggregated outside the lock — the real
// pfscan's race.
int next;
int nfiles;
int matches;
int files[64];
mutex qm;

func scanner() {
	int more = 1;
	while (more == 1) {
		lock(qm);
		int mine = -1;
		if (next < nfiles) {
			mine = next;
			next = next + 1;
		}
		unlock(qm);
		if (mine < 0) {
			more = 0;
		} else {
			// Scan the "file": count 1 match per 3 bytes.
			int size = files[mine % 64];
			int found = size / 3;
			int g = matches;
			matches = g + found;
		}
	}
}

func main() {
	int n = input(0);
	if (n == 0) { n = 6; }
	if (n > 64) { n = 64; }
	nfiles = n;
	int i;
	int expect = 0;
	for (i = 0; i < n; i = i + 1) {
		files[i] = 9 + 3 * (i % 5);
		expect = expect + files[i] / 3;
	}
	int h1 = spawn scanner();
	int h2 = spawn scanner();
	join(h1);
	join(h2);
	int got = matches;
	assert(got == expect, "match counter lost an update");
}
`

const apacheSrc = `
// apache bug #45605: listener and worker threads keep the request queue's
// element count and ring indices in separate variables; the listener
// updates them non-atomically (count is bumped outside the lock), so a
// worker can observe count > 0 with an empty ring — the multi-variable
// atomicity violation that crashes the server's assertion.
int ring[16];
int qhead;
int qtail;
int qcount;
int served;
int bad;
mutex qm;
cond more;

func listener(n) {
	int i;
	for (i = 0; i < n; i = i + 1) {
		lock(qm);
		ring[qtail % 16] = i + 1;
		qtail = qtail + 1;
		signal(more);
		unlock(qm);
		// BUG: count bump outside the critical section.
		int c = qcount;
		qcount = c + 1;
	}
}

func worker(quota) {
	int handled = 0;
	int attempts = 0;
	while (handled < quota && attempts < 60) {
		attempts = attempts + 1;
		lock(qm);
		int avail = qcount;
		if (avail > 0) {
			// The server's invariant: a positive count implies a
			// non-empty ring.
			if (qhead == qtail) {
				bad = 1;
			}
			int req = ring[qhead % 16];
			if (qhead < qtail) { qhead = qhead + 1; }
			qcount = avail - 1;
			handled = handled + 1;
			served = served + req;
		}
		unlock(qm);
		if (bad == 1) { handled = quota; }
	}
	assert(bad == 0, "queue count/ring indices diverged");
}

func main() {
	int n = input(0);
	if (n == 0) { n = 3; }
	int l1 = spawn listener(n);
	int l2 = spawn listener(n);
	int w1 = spawn worker(n);
	int w2 = spawn worker(n);
	int w3 = spawn worker(n);
	join(l1);
	join(l2);
	join(w1);
	join(w2);
	join(w3);
}
`

const raceySrc = `
// racey: the deterministic-replay stress benchmark. Two worker threads
// append their ids to a shared history through a racy cursor while also
// racing on a signature; main then checks how interleaved the history is.
// Because main's per-element comparisons are branches, the path
// constraints pin the *exact* alternation pattern of the recorded failure,
// making racey the highest-context-switch SC instance of the table (the
// paper's racey needed 276 switches and was its worst case).
int hist[64];
int pos;
int sig;

func mix(id, rounds) {
	int i;
	for (i = 0; i < rounds; i = i + 1) {
		int p = pos;
		hist[p % 64] = id;
		pos = p + 1;
		int s = sig;
		sig = s + id * 7 + i;
	}
}

func main() {
	int rounds = input(0);
	if (rounds == 0) { rounds = 10; }
	int k = input(1);
	if (k == 0) { k = 6; }
	int h1 = spawn mix(1, rounds);
	int h2 = spawn mix(2, rounds);
	join(h1);
	join(h2);
	int n = pos;
	if (n > 64) { n = 64; }
	int alt = 0;
	int i;
	for (i = 1; i < n; i = i + 1) {
		if (hist[i] != hist[i - 1]) { alt = alt + 1; }
	}
	assert(alt < k, "history excessively interleaved");
}
`

const bakerySrc = `
// bakery: Lamport's bakery algorithm for 4 worker threads. Correct under
// SC; PSO's per-address store buffers let number[i] lag behind choosing[i]
// so two threads bake the same ticket and both enter.
int choosing[4];
int number[4];
int counter;
int incrit;
int bad;

func baker(id) {
	int round;
	for (round = 0; round < 1; round = round + 1) {
		choosing[id] = 1;
		int maxn = 0;
		int j;
		for (j = 0; j < 4; j = j + 1) {
			int nj = number[j];
			if (nj > maxn) { maxn = nj; }
		}
		number[id] = maxn + 1;
		choosing[id] = 0;
		int entered = 1;
		for (j = 0; j < 4; j = j + 1) {
			if (j != id) {
				int spins = 0;
				while (choosing[j] == 1 && spins < 20) { spins = spins + 1; yield(); }
				if (choosing[j] == 1) { entered = 0; }
				spins = 0;
				int blocked = 1;
				while (blocked == 1 && spins < 20) {
					int nj = number[j];
					int ni = number[id];
					if (nj == 0) {
						blocked = 0;
					} else {
						if (nj > ni || (nj == ni && j > id)) {
							blocked = 0;
						} else {
							spins = spins + 1;
							yield();
						}
					}
				}
				if (blocked == 1) { entered = 0; }
			}
		}
		if (entered == 1) {
			incrit = incrit + 1;
			if (incrit != 1) { bad = 1; }
			int c = counter;
			counter = c + 1;
			incrit = incrit - 1;
		}
		number[id] = 0;
	}
}

func main() {
	int h0 = spawn baker(0);
	int h1 = spawn baker(1);
	int h2 = spawn baker(2);
	int h3 = spawn baker(3);
	join(h0);
	join(h1);
	join(h2);
	join(h3);
	int b = bad;
	assert(b == 0, "bakery mutual exclusion violated");
}
`

const dekkerSrc = `
// dekker: Dekker's algorithm for two threads, with a bounded retry so the
// simulation always terminates. Correct under SC; TSO's store buffering
// lets both threads read the other's flag as 0.
int flag0;
int flag1;
int turn;
int counter;
int incrit;
int bad;

func d0() {
	int k;
	for (k = 0; k < 2; k = k + 1) {
		int done = 0;
		int tries = 0;
		while (done == 0 && tries < 30) {
			flag0 = 1;
			int f = flag1;
			if (f == 0) {
				incrit = incrit + 1;
				if (incrit != 1) { bad = 1; }
				int c = counter;
				counter = c + 1;
				incrit = incrit - 1;
				turn = 1;
				flag0 = 0;
				done = 1;
			} else {
				int t = turn;
				if (t == 1) {
					flag0 = 0;
					int spins = 0;
					while (turn == 1 && spins < 20) { spins = spins + 1; yield(); }
				}
				tries = tries + 1;
			}
		}
	}
}

func d1() {
	int k;
	for (k = 0; k < 2; k = k + 1) {
		int done = 0;
		int tries = 0;
		while (done == 0 && tries < 30) {
			flag1 = 1;
			int f = flag0;
			if (f == 0) {
				incrit = incrit + 1;
				if (incrit != 1) { bad = 1; }
				int c = counter;
				counter = c + 1;
				incrit = incrit - 1;
				turn = 0;
				flag1 = 0;
				done = 1;
			} else {
				int t = turn;
				if (t == 0) {
					flag1 = 0;
					int spins = 0;
					while (turn == 0 && spins < 20) { spins = spins + 1; yield(); }
				}
				tries = tries + 1;
			}
		}
	}
}

func main() {
	int h0 = spawn d0();
	int h1 = spawn d1();
	join(h0);
	join(h1);
	int b = bad;
	assert(b == 0, "dekker mutual exclusion violated");
}
`

const petersonSrc = `
// peterson: Peterson's algorithm for two threads with bounded retries.
// Correct under SC; broken by TSO store buffering.
int flag0;
int flag1;
int victim;
int counter;
int incrit;
int bad;

func p0() {
	int k;
	for (k = 0; k < 2; k = k + 1) {
		int done = 0;
		int tries = 0;
		while (done == 0 && tries < 30) {
			flag0 = 1;
			victim = 0;
			int f = flag1;
			int v = victim;
			if (f == 0 || v != 0) {
				incrit = incrit + 1;
				if (incrit != 1) { bad = 1; }
				int c = counter;
				counter = c + 1;
				incrit = incrit - 1;
				flag0 = 0;
				done = 1;
			} else {
				flag0 = 0;
				tries = tries + 1;
				yield();
			}
		}
	}
}

func p1() {
	int k;
	for (k = 0; k < 2; k = k + 1) {
		int done = 0;
		int tries = 0;
		while (done == 0 && tries < 30) {
			flag1 = 1;
			victim = 1;
			int f = flag0;
			int v = victim;
			if (f == 0 || v != 1) {
				incrit = incrit + 1;
				if (incrit != 1) { bad = 1; }
				int c = counter;
				counter = c + 1;
				incrit = incrit - 1;
				flag1 = 0;
				done = 1;
			} else {
				flag1 = 0;
				tries = tries + 1;
				yield();
			}
		}
	}
}

func main() {
	int h0 = spawn p0();
	int h1 = spawn p1();
	join(h0);
	join(h1);
	int b = bad;
	assert(b == 0, "peterson mutual exclusion violated");
}
`
