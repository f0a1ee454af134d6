#pragma once

#include <cstdint>

#include "ksr/machine/machine.hpp"

// The sync trace bracket every lock and barrier logs through.
namespace ksr::sync {

/// Run `body` on `cpu`. With a tracer attached to the cpu's machine, log
/// sync/`begin` before it and sync/`end` after it (detail = the ns `body`
/// took), both with subject `subject()`, which is called only then. With no
/// tracer attached this is one null test around `body`. Declared inline:
/// without the hint GCC keeps it out of line, a call per barrier arrival.
template <typename Subject, typename Body>
inline void traced(machine::Cpu& cpu, std::uint16_t begin, std::uint16_t end,
                   Subject subject, Body body) {
  obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id());
  if (tr == nullptr) {
    body();
    return;
  }
  const std::uint64_t s = subject();
  const sim::Time t0 = cpu.now();
  tr->log(t0, obs::kCatSync, begin, s, cpu.id());
  body();
  tr->log(cpu.now(), obs::kCatSync, end, s, cpu.id(),
          static_cast<std::int64_t>(cpu.now() - t0));
}

/// Log sync/`ev` at the cpu's current time, if a tracer is attached.
inline void trace_event(machine::Cpu& cpu, std::uint16_t ev,
                        std::uint64_t subject) {
  if (obs::Tracer* tr = cpu.machine().tracer_for_cell(cpu.id())) {
    tr->log(cpu.now(), obs::kCatSync, ev, subject, cpu.id());
  }
}

}  // namespace ksr::sync
