package main

// Output checks shared by the workloads: every reported node must lie
// inside the request's obfuscation range, at the requested precision
// level, and outside the pruned set the request's preferences imply.

import (
	"context"
	"fmt"

	"corgi/internal/hexgrid"
	"corgi/internal/loctree"
	"corgi/internal/policy"
	"corgi/internal/registry"
)

// drawKey identifies one (user, cell, policy) context whose allowed set
// is cached: preference evaluation depends on nothing else.
type drawKey struct {
	uid  int64
	cell hexgrid.Coord
	pol  int
}

// drawChecker validates reported nodes against one shard's tree and
// policy metadata.
type drawChecker struct {
	sh       *registry.Shard
	tree     *loctree.Tree
	policies []policy.Policy
	allowed  map[drawKey]map[loctree.NodeID]bool
	checked  int
}

func newDrawChecker(ctx context.Context, reg *registry.Registry, region string, policies []policy.Policy) (*drawChecker, error) {
	sh, err := reg.Shard(ctx, region)
	if err != nil {
		return nil, err
	}
	return &drawChecker{sh: sh, tree: sh.Server.Tree(), policies: policies, allowed: map[drawKey]map[loctree.NodeID]bool{}}, nil
}

// allowedLeaves evaluates the policy's preferences over the privacy
// subtree's leaves, from the user's standpoint at cell.
func (c *drawChecker) allowedLeaves(k drawKey, root loctree.NodeID) (map[loctree.NodeID]bool, error) {
	if a, ok := c.allowed[k]; ok {
		return a, nil
	}
	pol := c.policies[k.pol]
	leaves := c.tree.LeavesUnder(root)
	out := make(map[loctree.NodeID]bool, len(leaves))
	if len(pol.Preferences) == 0 {
		for _, l := range leaves {
			out[l] = true
		}
	} else {
		attrs, err := c.sh.Attrs(int(k.uid), c.tree.Center(loctree.NodeID{Coord: k.cell}), leaves)
		if err != nil {
			return nil, err
		}
		for _, l := range leaves {
			ok, err := pol.Allowed(attrs[l])
			if err != nil {
				return nil, err
			}
			out[l] = ok
		}
	}
	c.allowed[k] = out
	return out, nil
}

// forget drops the cached allowed sets: they are the benchmark's own
// memory, released before the live heap is measured.
func (c *drawChecker) forget() { c.allowed = map[drawKey]map[loctree.NodeID]bool{} }

// check validates one answered report: the subtree root and precision
// the server echoed, and every reported node.
func (c *drawChecker) check(uid int64, cell hexgrid.Coord, pol int, root [2]int, prec int, nodes [][2]int) error {
	p := c.policies[pol]
	leaf := loctree.NodeID{Coord: cell}
	want, ok := c.tree.AncestorAt(leaf, p.PrivacyLevel)
	if !ok {
		return fmt.Errorf("uid %d: cell %v has no ancestor at level %d", uid, cell, p.PrivacyLevel)
	}
	if root != [2]int{want.Coord.Q, want.Coord.R} {
		return fmt.Errorf("uid %d: served subtree %v, want %v", uid, root, want.Coord)
	}
	if prec != p.PrecisionLevel {
		return fmt.Errorf("uid %d: precision level %d, want %d", uid, prec, p.PrecisionLevel)
	}
	allowed, err := c.allowedLeaves(drawKey{uid, cell, pol}, want)
	if err != nil {
		return err
	}
	for _, q := range nodes {
		n := loctree.NodeID{Level: p.PrecisionLevel, Coord: hexgrid.Coord{Q: q[0], R: q[1]}}
		if !c.tree.Contains(n) {
			return fmt.Errorf("uid %d: reported node %v not in the tree", uid, n)
		}
		if anc, ok := c.tree.AncestorAt(n, p.PrivacyLevel); !ok || anc != want {
			return fmt.Errorf("uid %d: reported node %v outside obfuscation range %v", uid, n, want)
		}
		kept := false
		for _, l := range c.tree.LeavesUnder(n) {
			kept = kept || allowed[l]
		}
		if !kept {
			return fmt.Errorf("uid %d: reported node %v lies in the pruned set", uid, n)
		}
		c.checked++
	}
	return nil
}
