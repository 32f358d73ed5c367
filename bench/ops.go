package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ast"
)

// The serving dataset: 40 disjoint edge chains of 50 edges. Chain c
// owns node ids c*100 .. c*100+99: positions 0..50 are the chain, 60..98
// are leaves that updates attach and detach. Every edge goes from a
// smaller to a larger id, so the dataset satisfies the ic
// ":- edge(X, Y), Y <= X." at every moment of every run.
const (
	numChains = 40
	chainLen  = 50
	stride    = 100
	leafBase  = 60
	numLeaves = 39
	// numRegions partitions the chains (c mod 4). All operations that
	// depend on or change a region's edges sit at list indexes
	// congruent to the region, and a client executes whole regions in
	// list order — so a region's state at each of its operations is
	// determined by the seed alone, whatever the client count, and the
	// per-operation oracle is exact without serializing the clients.
	numRegions = 4
	hotSetSize = 32
)

func nodeID(chain, pos int) int { return chain*stride + pos }
func regionOf(node int) int     { return (node / stride) % numRegions }

// The view's selections: two start points and three end points per
// chain, six goodPath answers each, 240 in all.
const pointsPerChain = 5

func isStart(node int) bool { p := node % stride; return p == 0 || p == 10 }
func isEnd(node int) bool   { p := node % stride; return p == 40 || p == 45 || p == 50 }

const (
	tcRules  = "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y).\n"
	tcICs    = ":- edge(X, Y), Y <= X.\n"
	viewSrc  = tcRules + "goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).\n?- goodPath.\n"
	fullSrc  = tcRules + "?- path.\n"
	dsName   = "g"
	viewName = "good"
)

func pointSrc(node int) string { return fmt.Sprintf("%s?- path(%d, Y).\n", tcRules, node) }

func num(i int) ast.Term { return ast.N(float64(i)) }

// baseFacts returns the dataset every run starts from.
func baseFacts(withPoints bool) []ast.Atom {
	var out []ast.Atom
	for c := 0; c < numChains; c++ {
		for i := 0; i < chainLen; i++ {
			out = append(out, ast.NewAtom("edge", num(nodeID(c, i)), num(nodeID(c, i+1))))
		}
	}
	if withPoints {
		for c := 0; c < numChains; c++ {
			for pos := 0; pos <= chainLen; pos++ {
				if n := nodeID(c, pos); isStart(n) {
					out = append(out, ast.NewAtom("startPoint", num(n)))
				} else if isEnd(n) {
					out = append(out, ast.NewAtom("endPoint", num(n)))
				}
			}
		}
	}
	return out
}

func factsSource(facts []ast.Atom) string {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	return b.String()
}

type opKind uint8

const (
	opPoint opKind = iota
	opFull
	opAdd
	opRetract
	opView
	opLint
	numOpKinds
)

var opKindNames = [numOpKinds]string{"point", "full", "add", "retract", "view", "lint"}

// op is one generated request.
type op struct {
	Kind    opKind
	Region  int  // list index mod numRegions
	Node    int  // opPoint: the goal constant
	X, Y    int  // opAdd/opRetract: the edge
	Cascade bool // the update cuts or restores a chain edge (DRed cascade)
}

func (o op) String() string {
	return fmt.Sprintf("%s r%d n%d e%d-%d c%t", opKindNames[o.Kind], o.Region, o.Node, o.X, o.Y, o.Cascade)
}

// request returns the HTTP method, path and body of the operation.
func (o op) request() (method, path, body string) {
	query := func(src string) string {
		b, _ := json.Marshal(map[string]string{"program": src, "ics": tcICs, "dataset": dsName})
		return string(b)
	}
	switch o.Kind {
	case opPoint:
		return "POST", "/v1/query", query(pointSrc(o.Node))
	case opFull:
		return "POST", "/v1/query", query(fullSrc)
	case opAdd:
		return "POST", "/v1/datasets/" + dsName + "/facts", fmt.Sprintf("edge(%d, %d).\n", o.X, o.Y)
	case opRetract:
		return "DELETE", "/v1/datasets/" + dsName + "/facts", fmt.Sprintf("edge(%d, %d).\n", o.X, o.Y)
	case opView:
		return "GET", "/v1/datasets/" + dsName + "/views/" + viewName, ""
	default:
		b, _ := json.Marshal(map[string]string{"program": fullSrc, "ics": tcICs})
		return "POST", "/v1/lint", string(b)
	}
}

func opsSHA(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintln(h, o.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pointOps is serve-point's list: n point queries whose goal constants
// come from a hot set of 32. The seed picks which chains are hot and
// the order of the queries; the positions inside the chains — and so
// the answer sizes, which set the cost of a query — are the same
// multiset for every seed, so runs with different seeds measure the
// same work. The list opens with one pass over the hot set, so the
// rewrite cache is full once the warm-up has run.
func pointOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(numChains)
	hot := make([]int, hotSetSize)
	for j := range hot {
		hot[j] = nodeID(perm[j], (j*11)%chainLen)
	}
	ops := make([]op, n)
	for i := range ops {
		node := hot[i%hotSetSize]
		if i >= hotSetSize {
			node = hot[rng.Intn(hotSetSize)]
		}
		ops[i] = op{Kind: opPoint, Region: i % numRegions, Node: node}
	}
	return ops
}

// mixBlock is serve-mixed's traffic mix, fixed per 20 operations so
// every window of a run carries the same share of each kind whatever
// the seed: 55% point queries, 5% full queries, 30% updates, 5% view
// reads, 5% lint. (One full query per block, not two: each sorts and
// encodes 51k answers, and at two per block their garbage and their
// two-worker fixpoints decided where the point queries' tail fell in a
// given run — p95 moved by a fifth between runs of one seed.)
var mixBlock = func() []opKind {
	var b []opKind
	for i := 0; i < 11; i++ {
		b = append(b, opPoint)
	}
	b = append(b, opFull, opView, opLint)
	for i := 0; i < 6; i++ {
		b = append(b, opAdd) // an update slot; add or retract is decided by pairing
	}
	return b
}()

// cascadeEvery makes every sixth update pair a chain cut: the first
// half retracts a chain edge (DRed deletes and re-derives up to 650
// path tuples), the second half restores it. The other pairs attach a
// leaf and detach it again.
const cascadeEvery = 6

// mixedOps generates serve-mixed's list of about n operations. The
// seed picks chains, goal constants and the order inside each block.
// Updates come in pairs — the second half undoes the first, two update
// slots of the same region later — and the list ends by flushing every
// open pair, so a full pass leaves the dataset as it started.
func mixedOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	var (
		ops     []op
		pending [numRegions][]op
		leafCtr [numChains]int
		cutOpen [numChains]bool
		pairs   int
	)
	chainIn := func(r int) int { return r + numRegions*rng.Intn(numChains/numRegions) }
	update := func(r int) op {
		if len(pending[r]) >= 2 {
			o := pending[r][0]
			pending[r] = pending[r][1:]
			if o.Cascade {
				cutOpen[o.X/stride] = false
			}
			return o
		}
		pairs++
		c := chainIn(r)
		if pairs%cascadeEvery == 0 {
			for cutOpen[c] {
				c = (c + numRegions) % numChains
			}
			cutOpen[c] = true
			pos := (pairs / cascadeEvery * 7) % chainLen
			x, y := nodeID(c, pos), nodeID(c, pos+1)
			pending[r] = append(pending[r], op{Kind: opAdd, Region: r, X: x, Y: y, Cascade: true})
			return op{Kind: opRetract, Region: r, X: x, Y: y, Cascade: true}
		}
		x, y := nodeID(c, rng.Intn(chainLen+1)), nodeID(c, leafBase+leafCtr[c]%numLeaves)
		leafCtr[c]++
		pending[r] = append(pending[r], op{Kind: opRetract, Region: r, X: x, Y: y})
		return op{Kind: opAdd, Region: r, X: x, Y: y}
	}
	point := func(r int) op {
		return op{Kind: opPoint, Region: r, Node: nodeID(chainIn(r), rng.Intn(chainLen))}
	}
	block := append([]opKind(nil), mixBlock...)
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			r := len(ops) % numRegions
			switch k {
			case opPoint:
				ops = append(ops, point(r))
			case opAdd:
				ops = append(ops, update(r))
			default:
				ops = append(ops, op{Kind: k, Region: r})
			}
		}
	}
	for open := true; open; {
		open = false
		r := len(ops) % numRegions
		if len(pending[r]) > 0 {
			ops = append(ops, pending[r][0])
			pending[r] = pending[r][1:]
		} else {
			ops = append(ops, point(r))
		}
		for _, p := range pending {
			open = open || len(p) > 0
		}
	}
	return ops
}
