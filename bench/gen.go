package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"
)

// rng is splitmix64: tiny, fast and — unlike math/rand's default source —
// pinned here, so a seed names the same inputs on every toolchain.
type rng struct{ s uint64 }

// newRNG derives an independent stream from (seed, stream name, index), so
// adding a draw to one generator never shifts another's inputs.
func newRNG(seed int64, stream string, index int) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, index)
	return &rng{s: h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// unit returns a float in (0,1].
func (r *rng) unit() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// guestProg is one generated guest program with its oracle: Want is the
// print output computed here in Go while the source was being written, never
// by the emulator.
type guestProg struct {
	Kind   string // "straight" or "counter"
	Source string
	Want   []uint32
	// Weight is roughly what the job costs a worker, in straight-line
	// statements (compiling and translating them is most of a job).
	Weight int
}

const (
	straightLocals  = 8
	straightGlobals = 16
	printEvery      = 200
)

// genStraight writes a straight-line GAC main of the given statement count:
// word arithmetic over eight locals and a global array, a data-dependent
// if/else every dozen statements or so (forward branches only, so every
// translated block runs exactly once) and an occasional atomic_add, whose
// LL/SC retry loop cannot fail with one thread. Only operators whose 32-bit
// result is sign-agnostic are used, so the oracle is plain uint32 arithmetic.
func genStraight(r *rng, stmts int) guestProg {
	var b strings.Builder
	var v [straightLocals]uint32
	var g [straightGlobals]uint32
	var acc uint32
	var want []uint32

	fmt.Fprintf(&b, "var acc;\nvar g[%d];\nfunc main(a) {\n", straightGlobals)
	for i := range v {
		v[i] = uint32(r.next())
		fmt.Fprintf(&b, "var v%d = %d;\n", i, v[i])
	}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	eval := func(op string, x, y uint32) uint32 {
		switch op {
		case "+":
			return x + y
		case "-":
			return x - y
		case "*":
			return x * y
		case "&":
			return x & y
		case "|":
			return x | y
		}
		return x ^ y
	}
	for n := 0; n < stmts; n++ {
		a, x, y := r.intn(straightLocals), r.intn(straightLocals), r.intn(straightLocals)
		k := uint32(r.next()>>40) | 1
		op1, op2 := ops[r.intn(len(ops))], ops[r.intn(len(ops))]
		switch pick := r.intn(100); {
		case pick < 50:
			fmt.Fprintf(&b, "v%d = (v%d %s %d) %s v%d;\n", a, x, op1, k, op2, y)
			v[a] = eval(op2, eval(op1, v[x], k), v[y])
		case pick < 58:
			sh := uint32(1 + r.intn(7))
			fmt.Fprintf(&b, "v%d = (v%d << %d) ^ (v%d >> %d);\n", a, x, sh, y, sh)
			v[a] = v[x]<<sh ^ v[y]>>sh
		case pick < 72:
			i := r.intn(straightGlobals)
			fmt.Fprintf(&b, "g[%d] = v%d %s v%d;\n", i, x, op1, y)
			g[i] = eval(op1, v[x], v[y])
		case pick < 86:
			i := r.intn(straightGlobals)
			fmt.Fprintf(&b, "v%d = g[%d] %s v%d;\n", a, i, op1, y)
			v[a] = eval(op1, g[i], v[y])
		case pick < 96:
			fmt.Fprintf(&b, "if ((v%d & 1) == 0) { v%d = v%d + %d; } else { v%d = v%d ^ %d; }\n", x, a, a, k, a, a, k)
			if v[x]&1 == 0 {
				v[a] += k
			} else {
				v[a] ^= k
			}
		default:
			d := uint32(1 + r.intn(9))
			fmt.Fprintf(&b, "v%d = atomic_add(&acc, %d);\n", a, d)
			acc += d
			v[a] = acc
		}
		if (n+1)%printEvery == 0 {
			fmt.Fprintf(&b, "print(v%d);\n", a)
			want = append(want, v[a])
		}
	}
	fold := acc
	b.WriteString("print(acc")
	for i := range v {
		fmt.Fprintf(&b, " ^ v%d", i)
		fold ^= v[i]
	}
	for i := range g {
		fmt.Fprintf(&b, " ^ g[%d]", i)
		fold ^= g[i]
	}
	b.WriteString(");\nexit(0);\n}\n")
	want = append(want, fold)
	return guestProg{Kind: "straight", Source: b.String(), Want: want, Weight: stmts}
}

// genCounter writes the two-thread LL/SC counter job: main spawns one worker
// and runs the same loop itself, both atomic_add-ing a shared word iters
// times, so the printed total is wrong iff an update was lost. tag makes
// otherwise-equal programs distinct images.
func genCounter(r *rng, iters int) guestProg {
	step := uint32(1 + r.intn(9))
	tag := uint32(r.next())
	src := fmt.Sprintf(`var counter;
func worker(n) {
    var i = 0;
    while (i < n) {
        atomic_add(&counter, %d);
        i = i + 1;
    }
    return i;
}
func main(a) {
    var t = spawn(worker, %d);
    worker(%d);
    join(t);
    print(%d);
    print(counter);
    exit(0);
}
`, step, iters, iters, tag)
	return guestProg{Kind: "counter", Source: src, Want: []uint32{tag, 2 * uint32(iters) * step}, Weight: counterWeight}
}

// Image sizes are a fixed ladder and only their order and content follow the
// seed: the work in a pool or an iteration is then the same for every seed,
// so two seeds measure the same thing and a metric's run-to-run spread is
// the host's, not the dice's.
const (
	coldImagesPerIter = 20
	coldStmtsLo       = 1000
	coldStmtsHi       = 3000
	poolImages        = 16
	poolStmtsLo       = 600
	poolStmtsHi       = 2800
	counterItersLo    = 300
	counterItersHi    = 600
	// counterWeight: a counter job is a tiny image whose cost is its loop,
	// about what three hundred straight-line statements cost.
	counterWeight = 300
)

func ladder(lo, hi, i, n int) int { return lo + (hi-lo)*i/(n-1) }

// genColdBatch is one cold_translate iteration's never-seen images.
func genColdBatch(seed int64, iter int) []guestProg {
	r := newRNG(seed, "cold", iter)
	out := make([]guestProg, coldImagesPerIter)
	for i := range out {
		out[i] = genStraight(r, ladder(coldStmtsLo, coldStmtsHi, i, coldImagesPerIter))
	}
	r.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// genMixed is the service traffic's i'th image shape: three straight-line
// programs to one counter job, sizes walking the ladders.
func genMixed(r *rng, i int) guestProg {
	if i%4 == 3 {
		return genCounter(r, ladder(counterItersLo, counterItersHi, i/4%4, 4))
	}
	slot := i/4*3 + i%4 // 0..11 over one pool's straight-line members
	return genStraight(r, ladder(poolStmtsLo, poolStmtsHi, slot%12, 12))
}

// genPool is the repeat-image pool of the svc_open and svc_sat_repeat
// workloads, before balancing.
func genPool(seed int64) []guestProg { return genPoolStream(seed, "pool") }

// genPoolAlternates is a second pool of the same shapes and sizes, image for
// image, from which balancePool may swap members in.
func genPoolAlternates(seed int64) []guestProg { return genPoolStream(seed, "pool-alt") }

func genPoolStream(seed int64, stream string) []guestProg {
	r := newRNG(seed, stream, 0)
	out := make([]guestProg, poolImages)
	for i := range out {
		out[i] = genMixed(r, i)
	}
	return out
}

// balancePool picks, slot by slot from the heaviest down, the primary image
// or its alternate — whichever is owned by the worker that has less weight
// so far. The router places a job by hashing its image, and sixteen hashes
// over two workers split 11:5 as readily as 8:8; capacity would then measure
// the split (57 to 81 jobs/s were seen from one commit), not the code.
func balancePool(primary, alternate []guestProg, owner func(guestProg) string) []guestProg {
	slots := make([]int, len(primary))
	for i := range slots {
		slots[i] = i
	}
	sort.SliceStable(slots, func(a, b int) bool { return primary[slots[a]].Weight > primary[slots[b]].Weight })
	load := make(map[string]int)
	out := make([]guestProg, len(primary))
	for _, i := range slots {
		pick := primary[i]
		if load[owner(alternate[i])] < load[owner(pick)] {
			pick = alternate[i]
		}
		load[owner(pick)] += pick.Weight
		out[i] = pick
	}
	return out
}

// genUnique is svc_sat_unique's i'th job: same shapes and sizes as the pool,
// never the same content twice.
func genUnique(seed int64, i int) guestProg {
	return genMixed(newRNG(seed, "unique", i), i%poolImages)
}

// poolOrder is the order in which n jobs draw from the pool: whole seeded
// permutations back to back, so every image is used equally often.
func poolOrder(seed int64, n int) []int {
	r := newRNG(seed, "order", 0)
	out := make([]int, 0, n+poolImages)
	for len(out) < n {
		perm := make([]int, poolImages)
		for i := range perm {
			perm[i] = i
		}
		r.shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		out = append(out, perm...)
	}
	return out[:n]
}

// genArrivals is a Poisson process at rate per second conditioned on its
// count: round(rate*window) arrivals whose exponential gaps are rescaled to
// fill the window exactly. The count is fixed so jobs_per_s does not inherit
// the sqrt(n) noise of an unconditioned draw.
func genArrivals(seed int64, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	if n < 1 {
		n = 1
	}
	r := newRNG(seed, "arrivals", 0)
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = -math.Log(r.unit())
		total += gaps[i]
	}
	out := make([]time.Duration, n)
	var at float64
	for i := range out {
		at += gaps[i]
		out[i] = time.Duration(at / total * float64(window))
	}
	return out
}
