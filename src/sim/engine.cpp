#include "ksr/sim/engine.hpp"

#include <cstdlib>

#include "ksr/sim/rng.hpp"
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>

namespace ksr::sim {

namespace {

/// Finished fibers' default-size stacks, recycled process-wide. Mapping a
/// fresh stack, faulting its first pages in and unmapping it took about
/// 10 us on a 4-vCPU x86-64 VM, the time of several hundred fiber
/// switches. A recycled stack keeps the pages its earlier fibers touched,
/// so the pool's resident memory follows the order in which fibers start
/// and finish, which a simulation fixes. Its stale contents are never read.
class StackPool {
 public:
  ZeroedArray<std::byte> take(std::size_t bytes) {
    if (bytes == Engine::kDefaultStackBytes) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!free_.empty()) {
        ZeroedArray<std::byte> s = std::move(free_.back());
        free_.pop_back();
        detail::unpoison(s.data(), s.size());
        return s;
      }
    }
    return ZeroedArray<std::byte>(bytes);
  }

  void give(ZeroedArray<std::byte>& stack) {
    ZeroedArray<std::byte> s = std::move(stack);
    if (s.size() != Engine::kDefaultStackBytes) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.size() < kMaxStacks) free_.push_back(std::move(s));
  }

 private:
  static constexpr std::size_t kMaxStacks = 256;
  std::mutex mu_;
  std::vector<ZeroedArray<std::byte>> free_;
};

StackPool& stack_pool() {
  static StackPool pool;
  return pool;
}

}  // namespace

Engine::~Engine() = default;

std::uint32_t Engine::claim_slot(InlineFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = pool_used_++;
    if (slot % kPoolChunk == 0) {
      pool_.push_back(std::make_unique<InlineFn[]>(kPoolChunk));
    }
  }
  pool_slot(slot) = std::move(fn);
  return slot;
}

Engine::Event Engine::keyed(Time t, std::uint32_t slot) {
  if (t < now_) {
    throw std::logic_error("Engine: scheduling into the past");
  }
  // Schedule fuzzing: a nonzero seed replaces the insertion sequence with a
  // seeded bijective hash of it, permuting same-time tie order while the
  // injectivity of mix64 keeps (t, seq) a strict total order.
  const std::uint64_t c = seq_++;
  return Event{t, fuzz_seed_ == 0 ? c : mix64(fuzz_seed_ + c), slot};
}

void Engine::at(Time t, InlineFn fn) {
  Event ev = keyed(t, 0);
  ev.slot = claim_slot(std::move(fn));
  events_.push(ev);
}

void Engine::observe_at(Time t, InlineFn fn) {
  if (t < now_) {
    throw std::logic_error("Engine::observe_at: scheduling into the past");
  }
  // Observers share the callback slab with the main lane but keep their own
  // sequence counter: drawing from seq_ would shift the seeded tie-break
  // hash of every later main-lane event (set_tie_break_seed()).
  observers_.push(Event{t, observer_seq_++, claim_slot(std::move(fn))});
}

void Engine::drain_observers(Time horizon) {
  while (!observers_.empty() && observers_.top().t <= horizon) {
    const Event oe = observers_.pop_top();
    if (oe.t > now_) now_ = oe.t;
    InlineFn& fn = pool_slot(oe.slot);
    fn();
    fn.reset();
    free_slots_.push_back(oe.slot);
  }
}

FiberId Engine::spawn(std::function<void()> body, Time start, std::size_t stack_bytes) {
  const auto id = static_cast<FiberId>(fibers_.size());
  const Event ev = keyed(start, kFiberTag | id);
  auto fiber = std::make_unique<Fiber>();
  fiber->body = std::move(body);
  // A default-sized stack is a mapping of its own: only the pages fibers
  // touch become resident, whatever the malloc heap held before.
  fiber->stack = stack_pool().take(stack_bytes);
  fiber->engine = this;
  fiber->id = id;
  fibers_.push_back(std::move(fiber));
  ++live_fibers_;
  events_.push(ev);
  return id;
}

#if KSR_HAVE_FAST_FIBERS

void Engine::fiber_main(void* arg) {
  auto* f = static_cast<Fiber*>(arg);
  try {
    f->body();
  } catch (...) {
    if (!f->engine->pending_exception_) {
      f->engine->pending_exception_ = std::current_exception();
    }
  }
  f->done = true;
  // One-way switch back to the scheduler; this context is never resumed.
  void* dead = nullptr;
  ksr_ctx_swap(&dead, f->engine->sched_sp_);
  std::abort();  // unreachable
}

void Engine::swap(Fiber* from, Fiber* to) {
  if (to != nullptr && !to->started) {
    to->sp = detail::make_fiber_context(to->stack.data(), to->stack.size(),
                                        &Engine::fiber_main, to);
    to->started = true;
  }
  ksr_ctx_swap(from != nullptr ? &from->sp : &sched_sp_,
               to != nullptr ? to->sp : sched_sp_);
}

#else  // ucontext fallback

void Engine::trampoline(unsigned hi, unsigned lo) {
  const auto bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  auto* f = reinterpret_cast<Fiber*>(bits);  // NOLINT: makecontext ABI
  try {
    f->body();
  } catch (...) {
    if (!f->engine->pending_exception_) {
      f->engine->pending_exception_ = std::current_exception();
    }
  }
  f->done = true;
  // Returning transfers control to uc_link (the scheduler context).
}

void Engine::swap(Fiber* from, Fiber* to) {
  if (to != nullptr && !to->started) {
    getcontext(&to->ctx);
    to->ctx.uc_stack.ss_sp = to->stack.data();
    to->ctx.uc_stack.ss_size = to->stack.size();
    to->ctx.uc_link = &sched_ctx_;
    const auto bits = reinterpret_cast<std::uintptr_t>(to);  // NOLINT
    makecontext(&to->ctx, reinterpret_cast<void (*)()>(&Engine::trampoline), 2,
                static_cast<unsigned>(bits >> 32),
                static_cast<unsigned>(bits & 0xffffffffu));
    to->started = true;
  }
  swapcontext(from != nullptr ? &from->ctx : &sched_ctx_,
              to != nullptr ? &to->ctx : &sched_ctx_);
}

#endif  // KSR_HAVE_FAST_FIBERS

void Engine::resume(Fiber& f) {
  if (f.done) return;
  current_ = &f;
  swap(nullptr, &f);
  // Control comes back from whichever fiber parked or finished last: after
  // handoffs that need not be `f`.
  Fiber* back = current_;
  current_ = nullptr;
  if (back->done) {
    stack_pool().give(back->stack);  // eagerly; the Fiber record remains
    --live_fibers_;
  }
}

void Engine::handoff(const Event* own) {
  // The event the scheduler would dispatch next, with `own` pushed: the
  // queue's top (read once) unless `own` sorts first.
  const Event* top = events_.empty() ? nullptr : &events_.top();
  const bool self =
      own != nullptr && (top == nullptr || !EventEarlier{}(*top, *own));
  const Event* next = self ? own : top;
  if (next == nullptr || (next->slot & kFiberTag) == 0 ||
      next->t >= horizon_ ||
      (!observers_.empty() && observers_.top().t <= next->t) ||
      fibers_[next->slot & ~kFiberTag]->done) {
    if (own != nullptr) events_.push(*own);
    swap(current_, nullptr);
    return;
  }
  // Dispatch `next` exactly as run_until() would, minus the round trip.
  const Event ev = self ? *own
                   : own != nullptr ? events_.exchange_top(*own)
                                    : events_.pop_top();
  now_ = ev.t;
  ++dispatched_;
  Fiber* to = fibers_[ev.slot & ~kFiberTag].get();
  if (to == current_) return;
  Fiber* from = current_;
  current_ = to;
  swap(from, to);
}

void Engine::wait_until(Time t) {
  if (!in_fiber()) throw std::logic_error("wait_until outside fiber");
  const Event own = keyed(t < now_ ? now_ : t, kFiberTag | current_->id);
  handoff(&own);
}

void Engine::block() {
  if (!in_fiber()) throw std::logic_error("block outside fiber");
  handoff(nullptr);
}

void Engine::wake(FiberId id, Time t) {
  if (fibers_.at(id)->done) {
    throw std::logic_error("Engine::wake: fiber " + std::to_string(id) +
                           " has already finished");
  }
  events_.push(keyed(t, kFiberTag | id));
}

FiberId Engine::current_fiber() const noexcept { return current_->id; }

void Engine::run() {
  run_until(std::numeric_limits<Time>::max());
  finish_run();
}

void Engine::run_until(Time horizon) {
  horizon_ = horizon;
  while (!events_.empty() && events_.top().t < horizon) {
    const Event ev = events_.pop_top();
    // Observers due at or before this event run first (the sample "at t"
    // sees the world before the event at t mutates it).
    drain_observers(ev.t);
    now_ = ev.t;
    ++dispatched_;
    if ((ev.slot & kFiberTag) != 0) {
      resume(*fibers_[ev.slot & ~kFiberTag]);
    } else {
      // Invoke in place: chunk addresses are stable, and the slot is
      // recycled only after the call, so the callback may freely schedule
      // new events.
      InlineFn& fn = pool_slot(ev.slot);
      fn();
      fn.reset();
      free_slots_.push_back(ev.slot);
    }
    if (pending_exception_) {
      auto ex = pending_exception_;
      pending_exception_ = nullptr;
      std::rethrow_exception(ex);
    }
  }
}

void Engine::finish_run() {
  // Drop (without running) observers scheduled past the last main event:
  // simulated time never reaches them. Their slots are recycled so a later
  // run() on the same engine starts clean.
  while (!observers_.empty()) {
    const Event oe = observers_.pop_top();
    pool_slot(oe.slot).reset();
    free_slots_.push_back(oe.slot);
  }
  if (live_fibers_ != 0) {
    throw std::runtime_error(
        "Engine::run: simulated deadlock — event queue drained with " +
        std::to_string(live_fibers_) + " fiber(s) still blocked");
  }
}

}  // namespace ksr::sim
