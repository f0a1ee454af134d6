// Checkpoint/restore (ksr/ckpt, docs/CHECKPOINT.md) round-trip tests.
//
// The contract under test: restoring a checkpoint into a freshly
// constructed machine of the same configuration is bit-exact — the forked
// run finishes with the same events_dispatched fingerprint, the same
// simulated clock, the same kernel result, and the same event trace as the
// uninterrupted run, with the ALLCACHE invariant auditor passing at the
// capture point and on the restored machine. Corrupt images (flipped byte,
// truncation, bad magic) and config mismatches must be rejected before any
// state is touched, and capture must refuse a non-quiescent machine
// (in-flight prefetches, busy directory windows).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ksr/check/checker.hpp"
#include "ksr/ckpt/checkpoint.hpp"
#include "ksr/machine/coherent_machine.hpp"
#include "ksr/machine/ksr_machine.hpp"
#include "ksr/nas/is.hpp"
#include "ksr/obs/tracer.hpp"

namespace ksr::machine {
namespace {

nas::IsConfig small_is() {
  nas::IsConfig cfg;
  cfg.log2_keys = 11;
  cfg.log2_buckets = 7;
  return cfg;
}

MachineConfig machine_cfg(unsigned procs, unsigned sim_threads) {
  return MachineConfig::ksr1(procs).scaled_by(procs).with_sim_threads(
      sim_threads);
}

struct Fingerprint {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  double seconds = 0;
  std::string trace_csv;  // captured over the ranked phase only
};

// The uninterrupted reference: warm-up and ranked phase on one machine,
// with the invariant checker attached for the whole run and the tracer (at
// sim_threads == 1; the parallel engine does not trace) covering the ranked
// phase — the same window the forked run can record.
Fingerprint run_uninterrupted(const MachineConfig& mc,
                              const nas::IsConfig& is) {
  KsrMachine m(mc);
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  nas::IsSplit split(m, is);
  split.run_warmup();
  checker.audit_all();
  obs::Tracer tracer;
  if (mc.sim_threads <= 1) m.attach_tracer(&tracer);
  const nas::IsResult r = split.run_ranked();
  EXPECT_TRUE(r.ranks_valid);
  checker.audit_all();
  Fingerprint fp{m.parallel_engine().events_dispatched(),
                 m.parallel_engine().now(), r.seconds, {}};
  if (mc.sim_threads <= 1) {
    std::ostringstream os;
    tracer.write_csv(os);
    fp.trace_csv = os.str();
  }
  return fp;
}

// Donor: identical to the reference but captures a checkpoint at the
// warm-up boundary. Capturing must not perturb the donor's own ranked
// phase, and the capture point must audit clean.
Fingerprint run_donor(const MachineConfig& mc, const nas::IsConfig& is,
                      std::vector<std::byte>* image) {
  KsrMachine m(mc);
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  nas::IsSplit split(m, is);
  split.run_warmup();
  checker.audit_all();
  *image = m.checkpoint();
  const nas::IsResult r = split.run_ranked();
  EXPECT_TRUE(r.ranks_valid);
  checker.audit_all();
  return {m.parallel_engine().events_dispatched(), m.parallel_engine().now(),
          r.seconds, {}};
}

// Fork: a fresh machine re-issues the donor's allocations (the IsSplit
// constructor), restores the image instead of re-simulating the warm-up,
// and runs the ranked phase with a fresh checker attached.
Fingerprint run_fork(const MachineConfig& mc, const nas::IsConfig& is,
                     const std::vector<std::byte>& image) {
  KsrMachine m(mc);
  nas::IsSplit split(m, is);
  m.restore(image);
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  checker.audit_all();
  obs::Tracer tracer;
  if (mc.sim_threads <= 1) m.attach_tracer(&tracer);
  const nas::IsResult r = split.run_ranked();
  EXPECT_TRUE(r.ranks_valid);
  checker.audit_all();
  Fingerprint fp{m.parallel_engine().events_dispatched(),
                 m.parallel_engine().now(), r.seconds, {}};
  if (mc.sim_threads <= 1) {
    std::ostringstream os;
    tracer.write_csv(os);
    fp.trace_csv = os.str();
  }
  return fp;
}

void expect_round_trip_bit_exact(unsigned procs, unsigned sim_threads) {
  const nas::IsConfig is = small_is();
  const MachineConfig mc = machine_cfg(procs, sim_threads);
  const Fingerprint cold = run_uninterrupted(mc, is);
  std::vector<std::byte> image;
  const Fingerprint donor = run_donor(mc, is, &image);
  const Fingerprint fork = run_fork(mc, is, image);

  // Capturing must not move the donor off the reference schedule.
  EXPECT_EQ(donor.events, cold.events);
  EXPECT_EQ(donor.end_time, cold.end_time);
  EXPECT_EQ(donor.seconds, cold.seconds);

  // The fork resumes the donor's event counters, so its final fingerprint
  // equals the uninterrupted run's — not just the ranked-phase delta.
  EXPECT_EQ(fork.events, cold.events);
  EXPECT_EQ(fork.end_time, cold.end_time);
  EXPECT_EQ(fork.seconds, cold.seconds);
  EXPECT_EQ(fork.trace_csv, cold.trace_csv);
  if (sim_threads <= 1) {
    EXPECT_FALSE(cold.trace_csv.empty());
  }
}

TEST(CkptRoundTrip, BitExact64CellsSerial) {
  expect_round_trip_bit_exact(64, 1);
}

TEST(CkptRoundTrip, BitExact64CellsSimThreads4) {
  expect_round_trip_bit_exact(64, 4);
}

TEST(CkptRoundTrip, BitExact128CellsSerial) {
  expect_round_trip_bit_exact(128, 1);
}

TEST(CkptRoundTrip, BitExact128CellsSimThreads4) {
  expect_round_trip_bit_exact(128, 4);
}

// Serial and 4-thread engines restore each other's images: the image
// records sim_threads as part of the config, so this must be rejected —
// a checkpoint is only valid for the exact configuration that wrote it.
TEST(CkptRoundTrip, SimThreadsMismatchRejected) {
  const nas::IsConfig is = small_is();
  std::vector<std::byte> image;
  (void)run_donor(machine_cfg(64, 1), is, &image);
  KsrMachine m(machine_cfg(64, 4));
  nas::IsSplit split(m, is);
  EXPECT_THROW(m.restore(image), std::runtime_error);
}

TEST(CkptRoundTrip, ConfigMismatchRejected) {
  const nas::IsConfig is = small_is();
  std::vector<std::byte> image;
  (void)run_donor(machine_cfg(64, 1), is, &image);
  KsrMachine m(machine_cfg(32, 1));
  nas::IsSplit split(m, small_is());
  EXPECT_THROW(m.restore(image), std::runtime_error);
}

// ----------------------------------------------------- pinned preset image
//
// The 64-cell IS machine at its warm-up boundary (scale 64, 2^11 keys,
// 2^7 buckets, one sim thread) — the checkpoint preset a served job
// restores from. Every payload field is fixed-width little-endian and the
// directory shards serialize sorted, so the image bytes are a pure function
// of the build's simulated semantics: a moved event count or payload
// fingerprint is a determinism or serialization regression (bump
// ckpt::kVersion only for a deliberate format change).

TEST(CkptPreset, Is64WarmImageIsPinnedAndRestoresAudited) {
  const MachineConfig mc = machine_cfg(64, 1);
  std::vector<std::byte> image;
  {
    KsrMachine donor(mc);
    nas::IsSplit split(donor, small_is());
    split.run_warmup();
    EXPECT_EQ(donor.parallel_engine().events_dispatched(), 31286u);
    image = donor.checkpoint();
  }
  ASSERT_GT(image.size(), ckpt::kHeaderBytes);
  const std::uint64_t payload_fnv =
      ckpt::fnv1a(image.data() + ckpt::kHeaderBytes,
                  image.size() - ckpt::kHeaderBytes);
  EXPECT_EQ(payload_fnv, 0x4456488a24c04d93ull);
  std::uint64_t header_fnv = 0;  // header bytes 20-27, little-endian
  for (std::size_t i = 0; i < 8; ++i) {
    header_fnv |= std::to_integer<std::uint64_t>(image[20 + i]) << (8 * i);
  }
  EXPECT_EQ(header_fnv, payload_fnv);

  KsrMachine m(mc);
  nas::IsSplit split(m, small_is());
  m.restore(image);
  check::InvariantChecker checker(m);
  m.attach_checker(&checker);
  checker.audit_all();
  EXPECT_TRUE(split.run_ranked().ranks_valid);
  checker.audit_all();
}

// ------------------------------------------------------- image validation

std::vector<std::byte> capture_small_image() {
  KsrMachine m(machine_cfg(4, 1));
  nas::IsSplit split(m, small_is());
  split.run_warmup();
  return m.checkpoint();
}

TEST(CkptImage, FlippedPayloadByteRejected) {
  std::vector<std::byte> image = capture_small_image();
  ASSERT_GT(image.size(), ckpt::kHeaderBytes);
  // Flip one bit in the middle of the payload: the FNV fingerprint in the
  // header no longer matches and open() must reject before any state moves.
  const std::size_t at = ckpt::kHeaderBytes + (image.size() / 2);
  image[at] ^= std::byte{0x10};
  EXPECT_THROW((void)ckpt::open(image), std::runtime_error);
  KsrMachine m(machine_cfg(4, 1));
  nas::IsSplit split(m, small_is());
  EXPECT_THROW(m.restore(image), std::runtime_error);
}

TEST(CkptImage, TruncationRejected) {
  std::vector<std::byte> image = capture_small_image();
  image.resize(image.size() - 1);
  EXPECT_THROW((void)ckpt::open(image), std::runtime_error);
  image.resize(ckpt::kHeaderBytes - 4);
  EXPECT_THROW((void)ckpt::open(image), std::runtime_error);
}

TEST(CkptImage, BadMagicAndVersionRejected) {
  std::vector<std::byte> image = capture_small_image();
  std::vector<std::byte> bad = image;
  bad[0] = std::byte{'X'};
  EXPECT_THROW((void)ckpt::open(bad), std::runtime_error);
  bad = image;
  bad[8] = std::byte{0xff};  // version field (little-endian u32 at offset 8)
  EXPECT_THROW((void)ckpt::open(bad), std::runtime_error);
}

TEST(CkptImage, WriterReaderRoundTripAndSchemaMismatch) {
  ckpt::Writer w;
  w.u8(7);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.boolean(true);
  w.str("holders");
  const std::vector<std::byte> image = w.seal();
  ckpt::Reader r = ckpt::open(image);
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "holders");
  r.expect_end();
  // A reader that stops early must fail expect_end (schema mismatch).
  ckpt::Reader r2 = ckpt::open(image);
  EXPECT_EQ(r2.u8(), 7u);
  EXPECT_THROW(r2.expect_end(), std::runtime_error);
}

// ---------------------------------------------------- quiescence refusal

// CoherentMachine keeps cells_/dir_find protected; this test subclass adds
// the two corruption handles needed to fabricate a non-quiescent capture
// point (the same pattern test_check.cpp uses for protocol corruption).
class NonQuiescentMachine : public CoherentMachine {
 public:
  explicit NonQuiescentMachine(const MachineConfig& cfg)
      : CoherentMachine(cfg) {}

  /// Pretend cell 0 still has a prefetch in flight for `sp`.
  void fake_inflight(mem::SubPageId sp) {
    cells_[0].inflight[sp];
    ++cells_[0].inflight_count;
  }
  void clear_inflight() {
    cells_[0].inflight.clear();
    cells_[0].inflight_count = 0;
  }
  /// Mark `sp`'s directory entry as inside a busy (decision) window.
  void fake_busy(mem::SubPageId sp, bool busy) { dir_find(sp)->busy = busy; }

 protected:
  void transport(unsigned cell, mem::SubPageId sp, unsigned target_leaf,
                 std::function<void(sim::Duration)> done) override {
    (void)cell;
    (void)sp;
    (void)target_leaf;
    engine_.at(engine_.now() + 200, [done = std::move(done)] { done(0); });
  }
  [[nodiscard]] sim::Duration transaction_overhead_ns(
      Acquire kind, bool crossed_leaf) const override {
    (void)kind;
    (void)crossed_leaf;
    return 100;
  }
};

TEST(CkptQuiescence, RefusesInflightAndBusyCaptures) {
  NonQuiescentMachine m(MachineConfig::ksr1(2));
  auto arr = m.alloc<int>("a", 16);
  m.run([&](Cpu& cpu) {
    if (cpu.id() == 0) cpu.write(arr, 0, 1);
  });
  const mem::SubPageId sp = mem::subpage_of(arr.addr(0));

  m.fake_inflight(sp);
  EXPECT_THROW((void)m.checkpoint(), std::logic_error);
  m.clear_inflight();

  m.fake_busy(sp, true);
  EXPECT_THROW((void)m.checkpoint(), std::logic_error);
  m.fake_busy(sp, false);

  // Quiescent again: capture succeeds and round-trips.
  const std::vector<std::byte> image = m.checkpoint();
  EXPECT_GT(image.size(), ckpt::kHeaderBytes);
}

// ------------------------------------------------------- durable writes
//
// Checkpoints (and everything else ckpt::atomic_write_file backs: the serve
// result store, campaign databases) are written temp-then-rename: a reader
// polling the final name can only ever see a complete image, and a failed
// write leaves neither a final file nor a temp file behind.

[[nodiscard]] bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

[[nodiscard]] std::string tmp_name_of(const std::string& path) {
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
}

TEST(AtomicWrite, FailedWriteNeverAppearsAtFinalName) {
  const std::string dir = ::testing::TempDir() + "ksr_no_such_dir_12345";
  const std::string path = dir + "/image.ckpt";
  try {
    ckpt::atomic_write_file(path, "payload");
    FAIL() << "write into a nonexistent directory must throw";
  } catch (const std::runtime_error& e) {
    // The diagnostic names the offending path, not just errno text.
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(tmp_name_of(path)));
}

TEST(AtomicWrite, RenameFailureCleansTempAndNamesBothPaths) {
  // The final name is an existing directory, so the temp file writes fine
  // but the rename must fail — the temp file must be cleaned up and the
  // exception must name both ends of the failed rename.
  const std::string path = ::testing::TempDir() + "ksr_atomic_dir_tgt";
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0) << std::strerror(errno);
  try {
    ckpt::atomic_write_file(path, "payload");
    FAIL() << "rename onto a directory must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(file_exists(tmp_name_of(path)));
  ::rmdir(path.c_str());
}

TEST(AtomicWrite, OverwriteReplacesWholeFileAndLeavesNoTemp) {
  const std::string path = ::testing::TempDir() + "ksr_atomic_overwrite";
  ckpt::atomic_write_file(path, "the old, longer content");
  ckpt::atomic_write_file(path, "new");
  const std::vector<std::byte> got = ckpt::read_file(path);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(got.data()),
                        got.size()),
            "new");
  EXPECT_FALSE(file_exists(tmp_name_of(path)));
  std::remove(path.c_str());
}

TEST(AtomicWrite, CheckpointToBadPathThrowsWithPathAndWritesNothing) {
  const nas::IsConfig is = small_is();
  KsrMachine m(machine_cfg(2, 1));
  nas::IsSplit split(m, is);
  split.run_warmup();
  const std::string path =
      ::testing::TempDir() + "ksr_no_such_dir_67890/is.ckpt";
  try {
    m.checkpoint_to(path);
    FAIL() << "checkpoint into a nonexistent directory must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(file_exists(path));
  // The machine is unharmed by the failed write: a good path still works
  // and the image restores bit-exactly.
  const std::string good = ::testing::TempDir() + "ksr_atomic_good.ckpt";
  m.checkpoint_to(good);
  EXPECT_TRUE(file_exists(good));
  EXPECT_FALSE(file_exists(tmp_name_of(good)));
  KsrMachine m2(machine_cfg(2, 1));
  nas::IsSplit split2(m2, is);
  m2.restore_from(good);
  EXPECT_TRUE(split2.run_ranked().ranks_valid);
  std::remove(good.c_str());
}

}  // namespace
}  // namespace ksr::machine
