#ifndef HPA_E2EBENCH_INPUTS_H_
#define HPA_E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "io/sim_disk.h"
#include "text/document.h"
#include "text/synth_corpus.h"

/// \file
/// Benchmark inputs, made from the seed alone: an NSF-shaped corpus for
/// the batch leg and the model fit, and held-out documents of the same
/// profile as request bodies. Every document also carries one of a few
/// planted topics, so that K-means has structure to find.

namespace hpa::e2e {

/// Corpus-disk paths of the generated inputs.
inline constexpr const char* kCorpusPack = "corpus.pack";
inline constexpr const char* kHeldoutPack = "heldout.pack";

/// Occurrences of its topic word in each document.
inline constexpr int kTopicRepeats = 5;

/// NSF Abstracts scaled by `scale`, with `heldout` extra documents of the
/// same shape, the generator seeded from the benchmark seed. The
/// generator's seed picks both the vocabulary and the documents, so the
/// held-out bodies are drawn in the same generation (the tail of it)
/// rather than from a second seed, which would share no words with the
/// model.
text::CorpusProfile InputProfile(uint64_t seed, double scale,
                                 uint64_t heldout);

/// Generates the corpus of `profile`, plants `topics` (>= 1) topics and
/// splits off the last `heldout` documents.
///
/// The generator's documents are Zipf noise: K-means on them converges
/// early for some seeds and late for others, so the work its pruning
/// saves, and with it the run time, would swing several-fold from seed to
/// seed. A planted topic is a word of its own ("topic" plus letters)
/// repeated kTopicRepeats times in each document of the topic, which the
/// document is assigned by a hash of its name. It adds about 1% of the
/// tokens and makes the clustering, and the pruning, alike across seeds.
void GenerateInputs(const text::CorpusProfile& profile, uint64_t heldout,
                    int topics, text::Corpus* train, text::Corpus* requests);

/// Generates both inputs and writes them packed onto `disk`.
Status WriteInputs(io::SimDisk* disk, uint64_t seed, double scale,
                   uint64_t heldout, int topics);

/// Order-sensitive hash of every document name and body.
uint64_t CorpusFingerprint(const text::Corpus& corpus);

}  // namespace hpa::e2e

#endif  // HPA_E2EBENCH_INPUTS_H_
