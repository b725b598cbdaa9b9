#include "ops/word_count.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "io/file_io.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"
#include "text/corpus_io.h"

namespace hpa::ops {
namespace {

using containers::DictBackend;

text::Corpus TinyCorpus() {
  text::Corpus corpus;
  corpus.name = "tiny";
  corpus.docs = {
      {"d0", "the cat sat on the mat"},
      {"d1", "the dog ate the cat food"},
      {"d2", "cat cat cat"},
      {"d3", ""},
  };
  return corpus;
}

/// Term frequency of `word` in document `doc`, or null when the document
/// does not contain it: per-document tables are keyed by the local term id
/// of the worker vocabulary that counted the document.
template <containers::DictBackend B>
const uint32_t* FindTf(const WordCountResult<B>& wc, size_t doc,
                       std::string_view word) {
  if (wc.doc_vocab[doc] == kNoVocabulary) return nullptr;
  const std::vector<std::string>& words = wc.vocabs[wc.doc_vocab[doc]].words;
  auto it = std::find(words.begin(), words.end(), word);
  if (it == words.end()) return nullptr;
  return wc.doc_tfs[doc].Find(static_cast<uint32_t>(it - words.begin()));
}

class WordCountTest : public ::testing::TestWithParam<DictBackend> {
 protected:
  void SetUp() override {
    auto dir = io::MakeTempDir("hpa_wc_test_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    disk_ = std::make_unique<io::SimDisk>(io::DiskOptions::CorpusStore(),
                                          dir_, nullptr);
    ASSERT_TRUE(text::WriteCorpusPacked(TinyCorpus(), disk_.get(),
                                        "tiny.pack").ok());
  }
  void TearDown() override { io::RemoveDirRecursive(dir_); }

  std::string dir_;
  std::unique_ptr<io::SimDisk> disk_;
};

TEST_P(WordCountTest, CountsMatchExpectationsAcrossBackends) {
  containers::DispatchDictBackend(GetParam(), [&](auto tag) {
    parallel::SerialExecutor exec;
    PhaseTimer phases;
    ExecContext ctx;
    ctx.executor = &exec;
    ctx.corpus_disk = disk_.get();
    ctx.phases = &phases;

    text::Corpus corpus = TinyCorpus();
    auto wc = RunWordCountInMemory<tag()>(ctx, corpus);

    ASSERT_EQ(wc.num_documents(), 4u);
    EXPECT_EQ(wc.total_tokens, 6u + 6u + 3u + 0u);

    // Per-document term frequencies.
    const uint32_t* the_d0 = FindTf(wc, 0, "the");
    ASSERT_NE(the_d0, nullptr);
    EXPECT_EQ(*the_d0, 2u);
    const uint32_t* cat_d2 = FindTf(wc, 2, "cat");
    ASSERT_NE(cat_d2, nullptr);
    EXPECT_EQ(*cat_d2, 3u);
    EXPECT_EQ(wc.doc_tfs[3].size(), 0u);

    // Document frequencies: "the" in docs 0,1; "cat" in docs 0,1,2.
    const TermStat* the_df = wc.doc_freq.Find(std::string_view("the"));
    ASSERT_NE(the_df, nullptr);
    EXPECT_EQ(the_df->df, 2u);
    const TermStat* cat_df = wc.doc_freq.Find(std::string_view("cat"));
    ASSERT_NE(cat_df, nullptr);
    EXPECT_EQ(cat_df->df, 3u);
    EXPECT_EQ(wc.doc_freq.Find(std::string_view("zebra")), nullptr);

    // input+wc phase was timed.
    EXPECT_GT(phases.Seconds("input+wc"), 0.0);
  });
}

TEST_P(WordCountTest, PackedCorpusMatchesInMemory) {
  containers::DispatchDictBackend(GetParam(), [&](auto tag) {
    parallel::SimulatedExecutor exec(4, parallel::MachineModel::Default());
    disk_->set_executor(&exec);
    ExecContext ctx;
    ctx.executor = &exec;
    ctx.corpus_disk = disk_.get();

    auto reader = io::PackedCorpusReader::Open(disk_.get(), "tiny.pack");
    ASSERT_TRUE(reader.ok());
    auto from_disk = RunWordCount<tag()>(ctx, *reader);
    ASSERT_TRUE(from_disk.ok()) << from_disk.status();

    text::Corpus corpus = TinyCorpus();
    auto in_memory = RunWordCountInMemory<tag()>(ctx, corpus);

    EXPECT_EQ(from_disk->total_tokens, in_memory.total_tokens);
    EXPECT_EQ(from_disk->doc_freq.size(), in_memory.doc_freq.size());
    EXPECT_EQ(from_disk->doc_names, in_memory.doc_names);
    disk_->set_executor(nullptr);
  });
}

TEST_P(WordCountTest, IdenticalResultsAcrossExecutors) {
  containers::DispatchDictBackend(GetParam(), [&](auto tag) {
    text::Corpus corpus = TinyCorpus();

    auto run = [&](parallel::Executor& exec) {
      ExecContext ctx;
      ctx.executor = &exec;
      return RunWordCountInMemory<tag()>(ctx, corpus);
    };

    parallel::SerialExecutor serial;
    parallel::ThreadPoolExecutor threads(3);
    parallel::SimulatedExecutor sim(8, parallel::MachineModel::Default());
    auto a = run(serial);
    auto b = run(threads);
    auto c = run(sim);

    EXPECT_EQ(a.total_tokens, b.total_tokens);
    EXPECT_EQ(a.total_tokens, c.total_tokens);
    EXPECT_EQ(a.doc_freq.size(), b.doc_freq.size());
    EXPECT_EQ(a.doc_freq.size(), c.doc_freq.size());
    a.doc_freq.ForEach([&](const std::string& word, const TermStat& stat) {
      const TermStat* tb = b.doc_freq.Find(std::string_view(word));
      const TermStat* tc = c.doc_freq.Find(std::string_view(word));
      ASSERT_NE(tb, nullptr) << word;
      ASSERT_NE(tc, nullptr) << word;
      EXPECT_EQ(stat.df, tb->df) << word;
      EXPECT_EQ(stat.df, tc->df) << word;
    });
  });
}

TEST_P(WordCountTest, PresizeIsHonored) {
  containers::DispatchDictBackend(GetParam(), [&](auto tag) {
    parallel::SerialExecutor exec;
    ExecContext ctx;
    ctx.executor = &exec;
    ctx.per_doc_dict_presize = 4096;  // the paper's 4K pre-size

    text::Corpus corpus = TinyCorpus();
    auto with_presize = RunWordCountInMemory<tag()>(ctx, corpus);
    ctx.per_doc_dict_presize = 0;
    auto without = RunWordCountInMemory<tag()>(ctx, corpus);

    // Counting results identical either way.
    EXPECT_EQ(with_presize.total_tokens, without.total_tokens);
    // Hash-based backends pay the pre-size in memory.
    using Dict = typename WordCountResult<tag()>::TfDict;
    if constexpr (!Dict::kSortedIteration) {
      EXPECT_GT(with_presize.ApproxDictBytes(), without.ApproxDictBytes());
    }
  });
}

TEST_P(WordCountTest, StemmingFoldsInflections) {
  containers::DispatchDictBackend(GetParam(), [&](auto tag) {
    text::Corpus corpus;
    corpus.name = "stems";
    corpus.docs = {{"d0", "connect connected connecting connection"},
                   {"d1", "connections"}};

    parallel::SerialExecutor exec;
    ExecContext ctx;
    ctx.executor = &exec;
    ctx.stem_tokens = true;
    auto stemmed = RunWordCountInMemory<tag()>(ctx, corpus);
    // All five inflections fold onto "connect".
    EXPECT_EQ(stemmed.doc_freq.size(), 1u);
    const uint32_t* tf = FindTf(stemmed, 0, "connect");
    ASSERT_NE(tf, nullptr);
    EXPECT_EQ(*tf, 4u);

    ctx.stem_tokens = false;
    auto surface = RunWordCountInMemory<tag()>(ctx, corpus);
    EXPECT_EQ(surface.doc_freq.size(), 5u);
  });
}

TEST_P(WordCountTest, TokenizerOptionsAreHonored) {
  containers::DispatchDictBackend(GetParam(), [&](auto tag) {
    text::Corpus corpus;
    corpus.docs = {{"d0", "a bb ccc dddd"}};
    parallel::SerialExecutor exec;
    ExecContext ctx;
    ctx.executor = &exec;
    ctx.tokenizer.min_token_length = 3;
    auto wc = RunWordCountInMemory<tag()>(ctx, corpus);
    EXPECT_EQ(wc.total_tokens, 2u);  // only "ccc", "dddd"
    EXPECT_EQ(wc.doc_freq.Find(std::string_view("bb")), nullptr);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, WordCountTest,
    ::testing::ValuesIn(containers::kAllDictBackends),
    [](const ::testing::TestParamInfo<DictBackend>& info) {
      std::string name(containers::DictBackendName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace hpa::ops
