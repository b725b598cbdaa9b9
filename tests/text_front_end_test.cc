// Equivalence suite for the TF/IDF text front end (word count + transform):
// the matrix bits, terms, term dfs and token count must not depend on the
// dictionary backend, the executor or its worker count, the per-document
// pre-size, or the driver (packed corpus vs in-memory corpus vs the
// discrete ARFF pass) — and must equal fingerprints pinned from an
// earlier implementation, so a rewrite of the front end cannot drift.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "io/fault_injection.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "io/sim_disk.h"
#include "ops/tfidf.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"
#include "text/corpus_io.h"
#include "text/synth_corpus.h"

namespace hpa::ops {
namespace {

using containers::DictBackend;

// Fingerprints of the seeded corpus below (see Fingerprint()), pinned from
// the string-keyed front end that preceded the interned one: surface
// tokens, Porter-stemmed tokens, surface tokens with the fault profile of
// QuarantinedDocumentLeavesTheRestIdentical, and the discrete ARFF file.
constexpr uint64_t kGoldenSurface = 0x3cf38587ec70df4cull;
constexpr uint64_t kGoldenStemmed = 0x2a2398c57b70758eull;
constexpr uint64_t kGoldenQuarantined = 0xa8be8a2a2638bfb7ull;
constexpr uint64_t kGoldenArff = 0xa0db3295a46c99edull;

template <typename T>
void AppendRaw(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Stable hash of everything the front end produces: terms, dfs, token
/// count, document names and every row's ids and float bit patterns.
uint64_t Fingerprint(const TfidfResult& r) {
  std::string bytes;
  for (const std::string& term : r.terms) {
    bytes += term;
    bytes += '\n';
  }
  for (uint32_t df : r.term_dfs) AppendRaw(bytes, df);
  AppendRaw(bytes, r.total_tokens);
  for (const std::string& name : r.doc_names) {
    bytes += name;
    bytes += '\n';
  }
  AppendRaw(bytes, r.matrix.num_cols);
  for (const containers::SparseVector& row : r.matrix.rows) {
    AppendRaw(bytes, static_cast<uint64_t>(row.nnz()));
    for (size_t k = 0; k < row.nnz(); ++k) {
      AppendRaw(bytes, row.id_at(k));
      AppendRaw(bytes, row.value_at(k));
    }
  }
  return StableHash64(bytes);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

text::Corpus SeededCorpus() {
  text::CorpusProfile profile;
  profile.name = "front_end";
  profile.num_documents = 240;
  profile.target_bytes = 320 * 1024;
  profile.target_distinct_words = 3000;
  profile.seed = 20160315;
  return text::SynthCorpusGenerator(profile).Generate();
}

struct ExecutorSpec {
  bool simulated;
  int workers;
};

std::unique_ptr<parallel::Executor> MakeExecutor(const ExecutorSpec& spec) {
  if (spec.simulated) {
    return std::make_unique<parallel::SimulatedExecutor>(
        spec.workers, parallel::MachineModel::Default());
  }
  return std::make_unique<parallel::ThreadPoolExecutor>(spec.workers);
}

constexpr ExecutorSpec kExecutors[] = {
    {false, 1}, {false, 2}, {false, 4}, {true, 4}};

class TextFrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = io::MakeTempDir("hpa_front_end_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    corpus_ = SeededCorpus();
    io::SimDisk disk(io::DiskOptions::CorpusStore(), dir_, nullptr);
    ASSERT_TRUE(text::WriteCorpusPacked(corpus_, &disk, "c.pack").ok());
  }
  void TearDown() override { io::RemoveDirRecursive(dir_); }

  /// Fused TF/IDF over the packed corpus; `faults` (may be null) is
  /// attached after the reader opens, so it hits the document reads.
  TfidfResult Run(DictBackend backend, const ExecutorSpec& spec,
                  bool stem, size_t presize,
                  io::FaultInjector* faults = nullptr) {
    auto exec = MakeExecutor(spec);
    io::SimDisk disk(io::DiskOptions::CorpusStore(), dir_, nullptr);
    auto reader = io::PackedCorpusReader::Open(&disk, "c.pack");
    EXPECT_TRUE(reader.ok()) << reader.status();
    if (faults != nullptr) {
      disk.set_fault_injector(faults);
      disk.set_retry_policy(RetryPolicy{});
    }
    ExecContext ctx;
    ctx.executor = exec.get();
    ctx.corpus_disk = &disk;
    ctx.dict_backend = backend;
    ctx.stem_tokens = stem;
    ctx.per_doc_dict_presize = presize;
    if (faults != nullptr) ctx.fault_policy = FaultPolicy::kRetryThenSkip;
    auto result = TfidfInMemory(ctx, *reader);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result).value();
  }

  std::string dir_;
  text::Corpus corpus_;
};

TEST_F(TextFrontEndTest, IdenticalAcrossBackendsExecutorsAndPresizes) {
  for (bool stem : {false, true}) {
    const uint64_t golden = stem ? kGoldenStemmed : kGoldenSurface;
    for (DictBackend backend : containers::kAllDictBackends) {
      for (const ExecutorSpec& spec : kExecutors) {
        for (size_t presize : {size_t{0}, size_t{4096}}) {
          TfidfResult r = Run(backend, spec, stem, presize);
          EXPECT_EQ(Hex(Fingerprint(r)), Hex(golden))
              << DictBackendName(backend) << " workers=" << spec.workers
              << (spec.simulated ? " simulated" : " threads")
              << " stem=" << stem << " presize=" << presize;
          EXPECT_FALSE(r.terms.empty());
          EXPECT_EQ(r.terms.size(), r.term_dfs.size());
        }
      }
    }
  }
}

TEST_F(TextFrontEndTest, QuarantinedDocumentLeavesTheRestIdentical) {
  io::FaultProfile profile;
  profile.permanent_rate = 0.02;
  profile.seed = 97;
  for (DictBackend backend : containers::kAllDictBackends) {
    for (const ExecutorSpec& spec : kExecutors) {
      io::FaultInjector faults(profile);
      TfidfResult r = Run(backend, spec, /*stem=*/false, 0, &faults);
      EXPECT_GE(r.quarantine.size(), 1u);
      EXPECT_EQ(Hex(Fingerprint(r)), Hex(kGoldenQuarantined))
          << DictBackendName(backend) << " workers=" << spec.workers
          << (spec.simulated ? " simulated" : " threads");
    }
  }
}

TEST_F(TextFrontEndTest, InMemoryWordCountMatchesPackedCorpus) {
  for (DictBackend backend : containers::kAllDictBackends) {
    containers::DispatchDictBackend(backend, [&](auto tag) {
      parallel::ThreadPoolExecutor exec(2);
      ExecContext ctx;
      ctx.executor = &exec;
      TfidfResult r = TfidfTransformT<tag()>(
          ctx, RunWordCountInMemory<tag()>(ctx, corpus_));
      EXPECT_EQ(Hex(Fingerprint(r)), Hex(kGoldenSurface))
          << DictBackendName(backend);
    });
  }
}

TEST_F(TextFrontEndTest, DiscreteArffBytesAreIdenticalAcrossBackends) {
  for (DictBackend backend : containers::kAllDictBackends) {
    for (const ExecutorSpec& spec : kExecutors) {
      auto exec = MakeExecutor(spec);
      io::SimDisk disk(io::DiskOptions::CorpusStore(), dir_, nullptr);
      io::SimDisk scratch(io::DiskOptions::LocalHdd(), dir_, nullptr);
      auto reader = io::PackedCorpusReader::Open(&disk, "c.pack");
      ASSERT_TRUE(reader.ok());
      ExecContext ctx;
      ctx.executor = exec.get();
      ctx.corpus_disk = &disk;
      ctx.scratch_disk = &scratch;
      ctx.dict_backend = backend;
      ASSERT_TRUE(TfidfToArff(ctx, *reader, "out.arff").ok());
      auto bytes = scratch.ReadFile("out.arff");
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(Hex(StableHash64(*bytes)), Hex(kGoldenArff))
          << DictBackendName(backend) << " workers=" << spec.workers
          << (spec.simulated ? " simulated" : " threads");
    }
  }
}

}  // namespace
}  // namespace hpa::ops
