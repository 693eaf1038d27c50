package controller

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MutationKind names one kind of topology churn the controller
// reconciles against.
//
//replicalint:exhaustive
type MutationKind string

const (
	// MutDrain marks a node draining: it keeps serving, but every
	// replica on it must migrate off and it stops being a move target.
	MutDrain MutationKind = "drain"
	// MutFail marks a node failed: replicas on it are at risk and
	// evacuate with top priority; it cannot be a move target.
	MutFail MutationKind = "fail"
	// MutRestore returns a drained or failed node to active service.
	// The node universe is fixed (placement shapes are immutable), so a
	// "node join" is a restore of one of the N provisioned slots.
	MutRestore MutationKind = "restore"
	// MutWeight changes a node's weight (>= 1). Weights order move
	// targets — lighter-loaded, higher-capacity nodes absorb replicas
	// first — but the availability invariant stays in object counts.
	MutWeight MutationKind = "weight"
	// MutCap changes a named domain's replica cap at any tree level
	// (0 lifts the cap); a name used at two levels is rejected, as
	// topology.SetCap rejects it. A tightened cap makes the controller shed
	// replicas from the over-cap subtree, never-degrade permitting.
	MutCap MutationKind = "cap"
)

// Mutation is one topology change consumed by the reconcile loop.
type Mutation struct {
	Kind   MutationKind `json:"kind"`
	Node   int          `json:"node,omitempty"`   // drain / fail / restore / weight
	Weight int          `json:"weight,omitempty"` // weight: the new node weight
	Domain string       `json:"domain,omitempty"` // cap: domain name, any level
	Cap    int          `json:"cap,omitempty"`    // cap: the new cap (0 = unlimited)
}

func (m Mutation) String() string {
	switch m.Kind {
	case MutDrain, MutFail, MutRestore:
		return fmt.Sprintf("%s %d", m.Kind, m.Node)
	case MutWeight:
		return fmt.Sprintf("weight %d %d", m.Node, m.Weight)
	case MutCap:
		return fmt.Sprintf("cap %s %d", m.Domain, m.Cap)
	default:
		// Unknown kinds (hand-built Mutation values) print raw.
		return fmt.Sprintf("%s %d", m.Kind, m.Node)
	}
}

// ParseScript reads a mutation script: one mutation per line, blank
// lines and '#' comments ignored.
//
//	drain <node>
//	fail <node>
//	restore <node>
//	weight <node> <w>
//	cap <domain> <n>
func ParseScript(r io.Reader) ([]Mutation, error) {
	var muts []Mutation
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		m, err := parseMutation(fields)
		if err != nil {
			return nil, fmt.Errorf("controller: script line %d: %w", lineNo, err)
		}
		muts = append(muts, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("controller: reading script: %w", err)
	}
	return muts, nil
}

func parseMutation(fields []string) (Mutation, error) {
	atoi := func(s, what string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("%s %q is not an integer", what, s)
		}
		return v, nil
	}
	kind := MutationKind(fields[0])
	switch kind {
	case MutDrain, MutFail, MutRestore:
		if len(fields) != 2 {
			return Mutation{}, fmt.Errorf("%s takes exactly one node argument", kind)
		}
		nd, err := atoi(fields[1], "node")
		if err != nil {
			return Mutation{}, err
		}
		return Mutation{Kind: kind, Node: nd}, nil
	case MutWeight:
		if len(fields) != 3 {
			return Mutation{}, fmt.Errorf("weight takes <node> <w>")
		}
		nd, err := atoi(fields[1], "node")
		if err != nil {
			return Mutation{}, err
		}
		w, err := atoi(fields[2], "weight")
		if err != nil {
			return Mutation{}, err
		}
		if w < 1 {
			return Mutation{}, fmt.Errorf("weight %d must be >= 1", w)
		}
		return Mutation{Kind: MutWeight, Node: nd, Weight: w}, nil
	case MutCap:
		if len(fields) != 3 {
			return Mutation{}, fmt.Errorf("cap takes <domain> <n>")
		}
		c, err := atoi(fields[2], "cap")
		if err != nil {
			return Mutation{}, err
		}
		if c < 0 {
			return Mutation{}, fmt.Errorf("cap %d must be >= 0 (0 lifts the cap)", c)
		}
		return Mutation{Kind: MutCap, Domain: fields[1], Cap: c}, nil
	default:
		return Mutation{}, fmt.Errorf("unknown mutation %q (drain|fail|restore|weight|cap)", fields[0])
	}
}
