package pipeline

import (
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// execPlan is a rank's fully materialized schedule for one wavefront
// block: every tile region, every boundary region, and every message size
// the hot loop needs, resolved once per Run so the steady-state wave
// touches no maps, builds no regions, and — with a buffer pool attached —
// allocates nothing.
type execPlan struct {
	upstream, downstream int
	hasUp, hasDown       bool
	// tiles[t] is the compute region of pipeline step t (the slab
	// restricted to tile t).
	tiles []grid.Region
	// needUp[t] is the index of the last upstream message required before
	// step t; only meaningful when hasUp.
	needUp []int
	// fields resolves pl.payload against the rank's local arrays, in the
	// same order, so the loop never consults the name map.
	fields []*field.Field
	// Coalesced message layout, one message per (peer, step): sendRegs[t]
	// holds each payload array's boundary region in payload order and
	// sendSizes[t] the matching element counts; sendTotal[t] is their sum
	// (the payload length, 0 when every pipelined array is read by
	// reference and the message is only the token). recv* mirror the
	// layout for the upstream portion's boundaries.
	sendRegs  [][]grid.Region
	sendSizes [][]int
	sendTotal []int
	recvRegs  [][]grid.Region
	recvSizes [][]int
	recvTotal []int
}

// buildExecPlan materializes the schedule for one rank. L is the rank's
// portion of the block region, upPortion the upstream neighbour's (only
// read when hasUp). locals resolves array names to the rank's fields.
func buildExecPlan(pl *plan, locals map[string]*field.Field,
	L, upPortion grid.Region, hasUp, hasDown bool, upstream, downstream int) *execPlan {
	T := pl.steps()
	ep := &execPlan{
		upstream: upstream, downstream: downstream,
		hasUp: hasUp, hasDown: hasDown,
		tiles:  make([]grid.Region, T),
		needUp: make([]int, T),
		fields: make([]*field.Field, len(pl.payload)),
	}
	for i, name := range pl.payload {
		ep.fields[i] = locals[name]
	}
	for t := 0; t < T; t++ {
		ep.tiles[t] = pl.tileRegion(L, t)
		if hasUp {
			ep.needUp[t] = pl.neededUpstream(t)
		} else {
			ep.needUp[t] = -1
		}
	}
	if hasDown {
		ep.sendRegs = make([][]grid.Region, T)
		ep.sendSizes = make([][]int, T)
		ep.sendTotal = make([]int, T)
		for t := 0; t < T; t++ {
			regs := make([]grid.Region, len(pl.payload))
			sizes := make([]int, len(pl.payload))
			total := 0
			for i, name := range pl.payload {
				regs[i] = pl.boundaryRegion(L, name, t)
				sizes[i] = regs[i].Size()
				total += sizes[i]
			}
			ep.sendRegs[t], ep.sendSizes[t], ep.sendTotal[t] = regs, sizes, total
		}
	}
	if hasUp {
		ep.recvRegs = make([][]grid.Region, T)
		ep.recvSizes = make([][]int, T)
		ep.recvTotal = make([]int, T)
		for t := 0; t < T; t++ {
			regs := make([]grid.Region, len(pl.payload))
			sizes := make([]int, len(pl.payload))
			total := 0
			for i, name := range pl.payload {
				regs[i] = pl.boundaryRegion(upPortion, name, t)
				sizes[i] = regs[i].Size()
				total += sizes[i]
			}
			ep.recvRegs[t], ep.recvSizes[t], ep.recvTotal[t] = regs, sizes, total
		}
	}
	return ep
}
