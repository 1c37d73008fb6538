// Umbrella header: the supported public surface of the nemo runtime.
//
//   #include <nemo/nemo.hpp>
//
// pulls in exactly the API an application is expected to program against:
//
//   nemo::core::Config   — world construction knobs (ranks, mode, lmt, coll)
//   nemo::core::run      — launch a world of ranks (threads or processes)
//   nemo::core::Comm     — per-rank handle: send/recv/isend/irecv/wait,
//                          datatypes, and the collectives (barrier, bcast,
//                          reduce/allreduce, alltoall) with their pt2pt
//                          and shm-arena schedules
//   nemo::core::World    — topology/placement queries for a running world
//   nemo::knobs()        — the NEMO_* knob table (Config::env pins them)
//   nemo::Options        — the --key=value parser the examples use
//
// Everything else under src/ (engine internals, LMT backends, the shm
// substrate, tracing, tuning) is implementation detail: it may
// be included directly by tools and tests in this repository, but its
// layout is not a compatibility surface. New applications should include
// only this header.
#pragma once

#include "common/options.hpp"  // nemo::Options — command-line parsing.
#include "core/comm.hpp"       // World, Comm, core::Config, core::run.
#include "core/knobs.hpp"      // nemo::knobs() — the NEMO_* knob table.
