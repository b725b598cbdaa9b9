#include "inputs.h"

#include <utility>

#include "common/checksum.h"
#include "common/random.h"
#include "text/corpus_io.h"

namespace hpa::e2e {

text::CorpusProfile InputProfile(uint64_t seed, double scale,
                                 uint64_t heldout) {
  text::CorpusProfile p = text::CorpusProfile::NsfAbstracts().Scaled(scale);
  uint64_t train = p.num_documents;
  p.target_bytes = p.target_bytes * (train + heldout) / train;
  p.num_documents = train + heldout;
  p.seed = SplitMix64(seed ^ 0x4E534631ULL).Next();
  return p;
}

namespace {

void PlantTopics(text::Corpus* corpus, int topics, uint64_t seed) {
  for (text::Document& doc : corpus->docs) {
    // Letters only: the tokenizer splits words at digits.
    std::string word = "topic";
    uint64_t t = StableHash64(doc.name, seed) % static_cast<uint64_t>(topics);
    do {
      word += static_cast<char>('a' + t % 26);
      t /= 26;
    } while (t > 0);
    for (int i = 0; i < kTopicRepeats; ++i) {
      doc.body += ' ';
      doc.body += word;
    }
  }
}

}  // namespace

void GenerateInputs(const text::CorpusProfile& profile, uint64_t heldout,
                    int topics, text::Corpus* train, text::Corpus* requests) {
  text::Corpus all = text::SynthCorpusGenerator(profile).Generate();
  PlantTopics(&all, topics, profile.seed);
  size_t split = all.docs.size() - static_cast<size_t>(heldout);
  requests->name = all.name + " held-out";
  requests->docs.assign(std::make_move_iterator(all.docs.begin() + split),
                        std::make_move_iterator(all.docs.end()));
  all.docs.resize(split);
  *train = std::move(all);
}

Status WriteInputs(io::SimDisk* disk, uint64_t seed, double scale,
                   uint64_t heldout, int topics) {
  text::Corpus train, requests;
  GenerateInputs(InputProfile(seed, scale, heldout), heldout, topics, &train,
                 &requests);
  HPA_RETURN_IF_ERROR(text::WriteCorpusPacked(train, disk, kCorpusPack));
  return text::WriteCorpusPacked(requests, disk, kHeldoutPack);
}

uint64_t CorpusFingerprint(const text::Corpus& corpus) {
  uint64_t h = 0;
  for (const text::Document& d : corpus.docs) {
    h = StableHash64(d.name, h);
    h = StableHash64(d.body, h);
  }
  return h;
}

}  // namespace hpa::e2e
