package cluster

import (
	"fmt"
	"strings"
)

// Peer names one cluster member and how to reach it: the corgi-stream
// address is the member's ring identity and its only forward transport;
// the HTTP base URL (optional) enables peer store-snapshot fetches.
type Peer struct {
	// Name is the member's ring identity — the stream address, which every
	// node's flag list spells identically, so all rings agree.
	Name string
	// StreamAddr is the member's corgi-stream listener (host:port).
	StreamAddr string
	// HTTPURL is the member's HTTP base URL (e.g. http://host:8080), used
	// only to fetch store snapshots from it (FetchSnapshot); empty
	// disables peer store fetch from this member.
	HTTPURL string
}

// ParsePeers parses the -cluster-peers flag value: comma-separated
// entries of the form "streamAddr" or "streamAddr=httpURL". The full
// member list (including the local node's own entry) must be identical on
// every node — member names are hashed into the ring, so the list IS the
// cluster topology.
func ParsePeers(spec string) ([]Peer, error) {
	var peers []Peer
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p := Peer{}
		if i := strings.IndexByte(part, '='); i >= 0 {
			p.StreamAddr, p.HTTPURL = part[:i], strings.TrimSuffix(part[i+1:], "/")
		} else {
			p.StreamAddr = part
		}
		if p.StreamAddr == "" {
			return nil, fmt.Errorf("cluster: peer entry %q has empty stream address", part)
		}
		if p.HTTPURL != "" && !strings.Contains(p.HTTPURL, "://") {
			p.HTTPURL = "http://" + p.HTTPURL
		}
		p.Name = p.StreamAddr
		if seen[p.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p.Name)
		}
		seen[p.Name] = true
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", spec)
	}
	return peers, nil
}
