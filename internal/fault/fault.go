// Package fault is the schedule engine shared by the fault-injection seams
// for the disk (internal/vfs, -wal-fault) and the network
// (internal/netfault, -repl-fault): the op:key=val;… rule language, the
// fields every seam shares with their range checks, the seeded matcher, the
// per-op operation and error counters, and the canonical renderer. A seam
// supplies a Grammar with its operation names and its own rule fields.
package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Rule is one fault in a schedule: it arms after After matching operations
// have passed through and then fires Times times (0 is treated as once, -1
// = forever). Prob, when in (0,1), fires the rule probabilistically instead
// (seeded, deterministic) on each matching call past After. Effect holds
// the seam's own fields.
type Rule[O ~int, E any] struct {
	Op      O
	After   int     // matching calls to skip before the rule arms
	Times   int     // times to fire once armed; 0 = once, -1 = forever
	Prob    float64 // probabilistic firing in (0,1); seeded
	Partial int     // write op only: bytes written before failing (a torn write)
	Effect  E

	own Counts
}

// Counts are one rule's arming counters in one scope: the matching
// operations it has seen and the times it has fired.
type Counts struct{ seen, fired int }

// Grammar is one seam's part of the schedule language.
type Grammar[O ~int, E any] struct {
	Name  string   // parse error prefix
	Ops   []string // operation names, indexed by O
	Write O        // the op partial=K applies to
	// Field parses the seam's own field key=val into e, rejecting keys the
	// seam does not own.
	Field func(e *E, key, val string) error
	// Vet, when non-nil, checks a parsed rule as a whole.
	Vet func(r *Rule[O, E]) error
	// Render appends e's fields in canonical order, each as ":key=val".
	Render func(b *strings.Builder, e *E)
	// Fails reports whether a fired rule with effect e counts toward Errors.
	Fails func(e *E) bool
}

// Plan is a seeded fault schedule: an ordered list of rules plus per-op
// operation and error counters. All methods are safe for concurrent use;
// serializing them under one mutex also makes the schedule deterministic
// for a single-writer caller.
type Plan[O ~int, E any] struct {
	g      *Grammar[O, E]
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*Rule[O, E]
	counts []int
	errs   []int
}

// New returns an empty schedule over g. seed drives the probabilistic
// rules; equal seeds give equal schedules.
func New[O ~int, E any](g *Grammar[O, E], seed int64) *Plan[O, E] {
	return &Plan[O, E]{
		g:      g,
		rng:    rand.New(rand.NewSource(seed)),
		counts: make([]int, len(g.Ops)),
		errs:   make([]int, len(g.Ops)),
	}
}

// Parse builds a schedule from a spec: a semicolon-separated list of rules,
// each colon-separated fields starting with the op name,
//
//	op[:after=N][:times=M][:p=F][:partial=K][:seam fields…]
//
// after must be at least 0, times at least -1, p within [0,1], and partial
// at least 0 and only on the write op. Whitespace around rules, fields,
// keys and values is ignored; a repeated field keeps its last value.
func Parse[O ~int, E any](g *Grammar[O, E], seed int64, spec string) (*Plan[O, E], error) {
	p := New(g, seed)
	for _, part := range strings.Split(spec, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		r, err := g.parse(part)
		if err != nil {
			return nil, fmt.Errorf("%s: %v in %q", g.Name, err, part)
		}
		p.Inject(r)
	}
	return p, nil
}

func (g *Grammar[O, E]) parse(part string) (r Rule[O, E], err error) {
	fields := strings.Split(part, ":")
	name := strings.TrimSpace(fields[0])
	op := slices.Index(g.Ops, name)
	if op < 0 {
		return r, fmt.Errorf("unknown op %q", name)
	}
	r.Op = O(op)
	for _, fld := range fields[1:] {
		k, v, ok := strings.Cut(fld, "=")
		if !ok {
			return r, fmt.Errorf("bad rule field %q", fld)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "after":
			if r.After, err = strconv.Atoi(v); err != nil || r.After < 0 {
				return r, fmt.Errorf("bad after=%q", v)
			}
		case "times":
			if r.Times, err = strconv.Atoi(v); err != nil || r.Times < -1 {
				return r, fmt.Errorf("bad times=%q", v)
			}
		case "p":
			if r.Prob, err = strconv.ParseFloat(v, 64); err != nil || !(r.Prob >= 0 && r.Prob <= 1) {
				return r, fmt.Errorf("bad p=%q", v)
			}
		case "partial":
			if r.Partial, err = strconv.Atoi(v); err != nil || r.Partial < 0 {
				return r, fmt.Errorf("bad partial=%q", v)
			}
		default:
			if err := g.Field(&r.Effect, k, v); err != nil {
				return r, err
			}
		}
	}
	if r.Partial > 0 && r.Op != g.Write {
		return r, fmt.Errorf("partial applies only to %s", g.Ops[g.Write])
	}
	if g.Vet != nil {
		err = g.Vet(&r)
	}
	return r, err
}

// Inject adds a rule to the schedule. The rule is copied; later mutation of
// the argument has no effect.
func (p *Plan[O, E]) Inject(r Rule[O, E]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, &r)
}

// Clear drops every rule.
func (p *Plan[O, E]) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = nil
}

// Rules returns a copy of the current rules, in schedule order.
func (p *Plan[O, E]) Rules() []Rule[O, E] {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Rule[O, E], len(p.rules))
	for i, r := range p.rules {
		out[i] = *r
	}
	return out
}

// Schedule renders the current rules in canonical Parse syntax (fixed field
// order, defaults omitted), which parses back to the same rules.
func (p *Plan[O, E]) Schedule() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b strings.Builder
	for i, r := range p.rules {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprint(&b, r.Op) // the seam's Op names itself
		if r.After > 0 {
			fmt.Fprintf(&b, ":after=%d", r.After)
		}
		if r.Times != 0 {
			fmt.Fprintf(&b, ":times=%d", r.Times)
		}
		if r.Prob > 0 {
			b.WriteString(":p=" + strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.Partial > 0 {
			fmt.Fprintf(&b, ":partial=%d", r.Partial)
		}
		p.g.Render(&b, &r.Effect)
	}
	return b.String()
}

// Count returns how many operations of class op have been issued.
func (p *Plan[O, E]) Count(op O) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[op]
}

// Errors returns how many operations of class op were failed by a rule.
func (p *Plan[O, E]) Errors(op O) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.errs[op]
}

// ErrorsTotal returns the total number of injected failures.
func (p *Plan[O, E]) ErrorsTotal() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.errs {
		n += e
	}
	return n
}

// Fire counts one operation of class op and returns a copy of the first rule
// that fires on it. match vets each rule of class op against the operation
// by the seam's own fields: false passes the rule over without counting the
// operation toward it, and a non-nil *Counts arms the rule on those
// counters (a per-scope count) instead of its own.
func (p *Plan[O, E]) Fire(op O, match func(*Rule[O, E]) (bool, *Counts)) (Rule[O, E], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[op]++
	for _, r := range p.rules {
		if r.Op != op {
			continue
		}
		ok, c := match(r)
		if !ok {
			continue
		}
		if c == nil {
			c = &r.own
		}
		c.seen++
		if c.seen <= r.After {
			continue
		}
		limit := r.Times
		if limit == 0 {
			limit = 1
		}
		if limit > 0 && c.fired >= limit {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && p.rng.Float64() >= r.Prob {
			continue
		}
		c.fired++
		if p.g.Fails(&r.Effect) {
			p.errs[op]++
		}
		return *r, true
	}
	return Rule[O, E]{}, false
}
