// Package engine is the shared campaign core behind every fault surface:
// the paper's datapath latches (internal/faultinj, §4–5) and Eyeriss
// buffer hierarchy (internal/eyeriss, §6), and the dataflow-parameterized
// systolic array (internal/systolic). All of them run the same statistical
// methodology — deterministic strided sharding, uniform or two-phase
// stratified (pilot → Neyman-allocated main) site sampling over a (block,
// base bit) stratum grid, and a shard-order merge that makes a distributed
// campaign bit-identical to a single-process run. This package implements
// that methodology once — Plan is the one definition of a campaign's slot
// layout, gating, allocation table and merge association (DESIGN.md §7),
// which Run and the distributed ledger both execute — with the scaffold
// each surface would otherwise re-implement around it: the campaign Options
// and their validation, the residency sampler, the one slot loop (RunSlot:
// draw, evaluate and tally each draw unit in draw order), the stratum-weight
// grid and the bit-plane evaluation of a single-MAC site. A surface supplies
// only what is its own — its report algebra (Surface) and its fault model
// (Model: the site draw, the evaluation of a site at a bit, the tally).
// DESIGN.md ("Fault surfaces") has the contract and the steps to add one.
package engine
