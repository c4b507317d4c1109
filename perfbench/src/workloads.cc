#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <thread>
#include <unordered_set>

#include "ssdl/capability_builder.h"
#include "workload/datasets.h"

namespace perfbench {

using gencompact::CapabilityBuilder;
using gencompact::CompareOp;
using gencompact::Mediator;
using gencompact::Row;
using gencompact::Schema;
using gencompact::Status;
using gencompact::SourceDescription;
using gencompact::Table;
using gencompact::Value;
using gencompact::ValueType;

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// SplitMix64: the benchmark's own generator, so its inputs do not depend
/// on the library's random utilities.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return Mix(state_);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t i) {
  return Mix(Mix(seed * 0x100000001b3ull + static_cast<uint64_t>(stream)) ^
             (i * 0xff51afd7ed558ccdull));
}

/// Disjoint constant classes per stream: a query of one stream can never
/// repeat a query of another.
uint64_t StreamResidue(Stream stream) {
  switch (stream) {
    case Stream::kWarmup:
      return 0;
    case Stream::kTimed:
      return 1;
    case Stream::kControl:
      return 2;
    case Stream::kTraced:
      return 3;
  }
  return 0;
}

Value Str(const std::string& s) { return Value::String(s); }

int Column(const Table& table, const std::string& attr) {
  const std::optional<int> index = table.schema().IndexOf(attr);
  if (!index.has_value()) {
    std::fprintf(stderr, "perfbench: table %s has no attribute %s\n",
                 table.name().c_str(), attr.c_str());
    std::abort();
  }
  return *index;
}

/// Distinct string values of `attr`, most frequent first (ties by value).
std::vector<std::string> ByFrequency(const Table& table,
                                     const std::string& attr) {
  const int column = Column(table, attr);
  std::map<std::string, size_t> counts;
  for (const Row& row : table.rows()) {
    counts[row.value(static_cast<size_t>(column)).string_value()] += 1;
  }
  std::vector<std::pair<std::string, size_t>> sorted(counts.begin(),
                                                     counts.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::string> out;
  for (auto& entry : sorted) out.push_back(std::move(entry.first));
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  return values;
}

/// Distinct words of at least four letters in `attr` (book titles).
std::vector<std::string> TitleWords(const Table& table,
                                    const std::string& attr) {
  const int column = Column(table, attr);
  std::vector<std::string> words;
  std::unordered_set<std::string> seen;
  for (const Row& row : table.rows()) {
    const std::string& title = row.value(static_cast<size_t>(column)).string_value();
    size_t start = 0;
    while (start < title.size()) {
      size_t end = title.find(' ', start);
      if (end == std::string::npos) end = title.size();
      std::string word = title.substr(start, end - start);
      if (word.size() >= 4 && seen.insert(word).second) {
        words.push_back(std::move(word));
      }
      start = end + 1;
    }
  }
  return Sorted(std::move(words));
}

/// Two distinct indices below n.
std::pair<size_t, size_t> TwoDistinct(Rng* rng, size_t n) {
  const size_t a = rng->Below(n);
  size_t b = rng->Below(n - 1);
  if (b >= a) ++b;
  return {a, b};
}

/// Example 1.2's shape: style = S and (size = Z1 or size = Z2) and
/// ((make = M1 and price <= P1) or (make = M2 and price <= P2)).
QuerySpec CarQuery(const std::string& style, const std::string& size1,
                   const std::string& size2, const std::string& make1,
                   int64_t price1, const std::string& make2, int64_t price2) {
  RelationSpec cars;
  cars.source = "cars";
  cars.local = Pred::And(
      {Pred::Atom("style", Op::kEq, Str(style)),
       Pred::Or({Pred::Atom("size", Op::kEq, Str(size1)),
                 Pred::Atom("size", Op::kEq, Str(size2))}),
       Pred::Or({Pred::And({Pred::Atom("make", Op::kEq, Str(make1)),
                            Pred::Atom("price", Op::kLe, Value::Int(price1))}),
                 Pred::And({Pred::Atom("make", Op::kEq, Str(make2)),
                            Pred::Atom("price", Op::kLe, Value::Int(price2))})})});
  QuerySpec spec;
  spec.relations.push_back(std::move(cars));
  spec.select = {{0, "make"}, {0, "model"}, {0, "price"}, {0, "year"}};
  return spec;
}

/// Example 1.1's shape: (author = A1 or author = A2) and title contains K.
QuerySpec BookQuery(const std::string& author1, const std::string& author2,
                    const std::string& keyword) {
  RelationSpec books;
  books.source = "books";
  books.local = Pred::And({Pred::Or({Pred::Atom("author", Op::kEq, Str(author1)),
                                     Pred::Atom("author", Op::kEq, Str(author2))}),
                           Pred::Atom("title", Op::kContains, Str(keyword))});
  QuerySpec spec;
  spec.relations.push_back(std::move(books));
  spec.select = {{0, "author"}, {0, "title"}, {0, "price"}};
  return spec;
}

/// Titles per author, for choosing Example 1.1 constants whose answer has
/// a target size.
class BookIndex {
 public:
  explicit BookIndex(const Table& books) {
    const size_t author = static_cast<size_t>(Column(books, "author"));
    const size_t title = static_cast<size_t>(Column(books, "title"));
    for (const Row& row : books.rows()) {
      titles_[row.value(author).string_value()].push_back(
          row.value(title).string_value());
    }
  }

  /// Answer size of BookQuery(a1, a2, keyword).
  size_t Matches(const std::string& a1, const std::string& a2,
                 const std::string& keyword) const {
    size_t n = 0;
    for (const std::string* author : {&a1, &a2}) {
      const auto it = titles_.find(*author);
      if (it == titles_.end()) continue;
      for (const std::string& t : it->second) {
        if (t.find(keyword) != std::string::npos) ++n;
      }
    }
    return n;
  }

  /// Of `candidates` (author pair, keyword) draws, the query whose answer
  /// size is closest to `target`.
  QuerySpec Closest(const std::vector<std::string>& authors,
                    const std::vector<std::string>& keywords, size_t target,
                    size_t candidates, Rng* rng) const {
    size_t best_distance = SIZE_MAX;
    QuerySpec best;
    for (size_t c = 0; c < candidates; ++c) {
      const auto [a1, a2] = TwoDistinct(rng, authors.size());
      const std::string& keyword = keywords[rng->Below(keywords.size())];
      const size_t n = Matches(authors[a1], authors[a2], keyword);
      const size_t distance = n > target ? n - target : target - n;
      if (distance < best_distance) {
        best_distance = distance;
        best = BookQuery(authors[a1], authors[a2], keyword);
      }
    }
    return best;
  }

 private:
  std::map<std::string, std::vector<std::string>> titles_;
};

Mediator::Options MediatorOptions(size_t threads, size_t shards) {
  Mediator::Options options;
  options.num_threads = threads;
  options.cache_capacity = 256;
  options.cache_shards = shards;
  return options;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// form_new_constants: web-form traffic, every query with constants never
// planned before.
// ---------------------------------------------------------------------------

constexpr size_t kNewConstantsCars = 2000;

class FormNewConstants : public Workload {
 public:
  FormNewConstants(uint64_t seed, bool smoke)
      : Workload(MakeConfig(smoke), seed, smoke) {}

  const BenchQuery& Query(Stream stream, size_t i) override {
    std::deque<BenchQuery>& queries = streams_[static_cast<size_t>(stream)];
    while (queries.size() <= i) {
      queries.push_back(Generate(stream, queries.size()));
    }
    return queries[i];
  }

 private:
  static WorkloadConfig MakeConfig(bool smoke) {
    WorkloadConfig config;
    config.name = "form_new_constants";
    config.fresh_constants = true;
    config.tail_percentile = 95.0;
    config.count_window = smoke ? 8 : 60;
    config.trace_window = smoke ? 4 : 30;
    // The Check memo of a mediator grows with every new constant, and
    // planning slows with it; a fresh mediator per round keeps the
    // measured state the same however many rounds a run fits.
    config.round_queries = config.count_window;
    config.reset_each_round = true;
    config.options = MediatorOptions(0, 1);
    config.params = {{"cars_rows", std::to_string(kNewConstantsCars)},
                     {"books_rows", std::to_string(BooksRows(smoke))},
                     {"mix", "3 Example-1.2 car queries : 1 Example-1.1 book query"},
                     {"loop", "closed, 1 client, no simulated latency"},
                     {"rounds", std::to_string(config.round_queries) +
                                    " queries, each on a freshly set-up mediator"}};
    return config;
  }
  static size_t BooksRows(bool smoke) { return smoke ? 2000 : 20000; }

  void Build() override {
    // A rebuild regenerates the same data, so the queries generated so
    // far, and their oracle answers, stay valid.
    if (streams_.empty()) {
      streams_.assign(4, {});
      used_.assign(4, {});
    }
    // The sources are fixed and the seed draws only the query constants:
    // planning time moves by about a tenth between car tables generated
    // from different seeds, which would swamp a run's own spread.
    gencompact::Dataset cars =
        gencompact::MakeCarSource(kNewConstantsCars, Mix(0xca5));
    gencompact::Dataset books =
        gencompact::MakeBookstore(BooksRows(smoke_), Mix(0xb00c));
    styles_ = Sorted(ByFrequency(*cars.table, "style"));
    size_pairs_ = Pairs(Sorted(ByFrequency(*cars.table, "size")), 0x512e);
    make_pairs_ = Pairs(Sorted(ByFrequency(*cars.table, "make")), 0x3a4e);
    authors_ = Sorted(ByFrequency(*books.table, "author"));
    words_ = TitleWords(*books.table, "title");
    Register(std::move(cars.description), std::move(cars.table));
    Register(std::move(books.description), std::move(books.table));
  }

  size_t warmup_queries() const override { return smoke_ ? 4 : 8; }

  BenchQuery Generate(Stream stream, size_t i) {
    const uint64_t residue = StreamResidue(stream);
    std::unordered_set<std::string>& used = used_[static_cast<size_t>(stream)];
    // The query's shape class cycles deterministically (style, size pair,
    // make pair for car queries; keyword for book queries), in an order
    // rotated by the seed, so every window of queries has the same mix;
    // the remaining constants are drawn.
    const uint64_t offset = StreamSeed(seed_, stream, 0x0ff5e7);
    const size_t round = i / 4;
    for (uint64_t attempt = 0;; ++attempt) {
      Rng rng(StreamSeed(seed_, stream, i * 1024 + attempt));
      QuerySpec spec;
      if (i % 4 != 3) {
        const size_t j = round * 3 + i % 4 + offset % 1000;
        const auto& [z1, z2] = size_pairs_[(j / styles_.size()) % size_pairs_.size()];
        const auto& [m1, m2] = make_pairs_[j % make_pairs_.size()];
        // Price bounds in [12000, 60000), congruent to the stream's residue
        // mod 4: no two streams ever share a bound.
        const auto price = [&]() {
          return static_cast<int64_t>(12000 + 4 * rng.Below(12000) + residue);
        };
        const int64_t p1 = price();
        const int64_t p2 = price();
        spec = CarQuery(styles_[j % styles_.size()], z1, z2, m1, p1, m2, p2);
      } else {
        // Authors of the stream's own class (index mod 4), so no author
        // pair recurs across streams; warm-up uses clipped keywords.
        const size_t pool = authors_.size() / 4;
        const auto [a1, a2] = TwoDistinct(&rng, pool);
        std::string keyword = words_[(round + offset) % words_.size()];
        if (stream == Stream::kWarmup) keyword = keyword.substr(1);
        spec = BookQuery(authors_[a1 * 4 + residue], authors_[a2 * 4 + residue],
                         keyword);
      }
      std::string sql = RenderSql(spec);
      if (used.insert(sql).second) return Finish(std::move(spec));
    }
  }

  /// Unordered pairs of distinct values, in a seed-shuffled order.
  std::vector<std::pair<std::string, std::string>> Pairs(
      const std::vector<std::string>& values, uint64_t salt) const {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (size_t a = 0; a < values.size(); ++a) {
      for (size_t b = a + 1; b < values.size(); ++b) {
        pairs.push_back({values[a], values[b]});
      }
    }
    Rng rng(StreamSeed(seed_, Stream::kWarmup, salt));
    for (size_t k = pairs.size(); k > 1; --k) {
      std::swap(pairs[k - 1], pairs[rng.Below(k)]);
    }
    return pairs;
  }

  std::vector<std::deque<BenchQuery>> streams_;
  std::vector<std::unordered_set<std::string>> used_;
  std::vector<std::string> styles_, authors_, words_;
  std::vector<std::pair<std::string, std::string>> size_pairs_, make_pairs_;
};

// ---------------------------------------------------------------------------
// recurring_bulk: a fixed set of broad queries, recurring Zipf-distributed,
// with answers in the thousands of rows.
// ---------------------------------------------------------------------------

constexpr size_t kBulkQueries = 48;

class RecurringBulk : public Workload {
 public:
  RecurringBulk(uint64_t seed, bool smoke)
      : Workload(MakeConfig(smoke), seed, smoke) {}

  const BenchQuery& Query(Stream stream, size_t i) override {
    if (stream == Stream::kWarmup) return pool_[i % pool_.size()];
    const size_t s = static_cast<size_t>(stream);
    while (draws_[s].size() <= i) AppendBlock(s);
    return pool_[draws_[s][i]];
  }

 private:
  static WorkloadConfig MakeConfig(bool smoke) {
    WorkloadConfig config;
    config.name = "recurring_bulk";
    config.tail_percentile = 95.0;
    config.count_window = smoke ? 16 : 125;
    config.trace_window = smoke ? 8 : 60;
    config.round_queries = config.count_window;
    config.options = MediatorOptions(0, 1);
    config.params = {{"cars_rows", std::to_string(CarsRows(smoke))},
                     {"books_rows", std::to_string(BooksRows(smoke))},
                     {"distinct_queries", std::to_string(kBulkQueries)},
                     {"zipf_s", "1.1"},
                     {"loop", "closed, 1 client, no simulated latency"},
                     {"rounds", std::to_string(config.round_queries) +
                                    " queries, one block of Zipf quotas"}};
    return config;
  }
  static size_t CarsRows(bool smoke) { return smoke ? 20000 : 200000; }
  static size_t BooksRows(bool smoke) { return smoke ? 5000 : 50000; }

  void Build() override {
    gencompact::Dataset cars =
        gencompact::MakeCarSource(CarsRows(smoke_), Mix(seed_ ^ 0xca5));
    gencompact::Dataset books =
        gencompact::MakeBookstore(BooksRows(smoke_), Mix(seed_ ^ 0xb00c));
    const Table& car_table = *cars.table;
    const Table& book_table = *books.table;

    // Per (style, size, make) sorted prices: lets each car query pick price
    // bounds that land its answer on a rank-determined target size.
    const int style_col = Column(car_table, "style");
    const int size_col = Column(car_table, "size");
    const int make_col = Column(car_table, "make");
    const int price_col = Column(car_table, "price");
    std::map<std::string, std::vector<int64_t>> prices;
    for (const Row& row : car_table.rows()) {
      const std::string key =
          row.value(static_cast<size_t>(style_col)).string_value() + "|" +
          row.value(static_cast<size_t>(size_col)).string_value() + "|" +
          row.value(static_cast<size_t>(make_col)).string_value();
      prices[key].push_back(row.value(static_cast<size_t>(price_col)).int_value());
    }
    const std::vector<std::string> styles = Sorted(ByFrequency(car_table, "style"));
    const std::vector<std::string> sizes = Sorted(ByFrequency(car_table, "size"));
    const std::vector<std::string> makes = ByFrequency(car_table, "make");
    const std::vector<std::string> authors = ByFrequency(book_table, "author");
    const double scale =
        static_cast<double>(CarsRows(smoke_)) / static_cast<double>(CarsRows(false));

    // Sorted prices of `make` cars of `style` in either size: the k-th is
    // the price bound under which the make contributes about k rows.
    const auto prices_for = [&](const std::string& style, const std::string& z1,
                                const std::string& z2, const std::string& make) {
      std::vector<int64_t> merged = prices[style + "|" + z1 + "|" + make];
      const std::vector<int64_t>& other = prices[style + "|" + z2 + "|" + make];
      merged.insert(merged.end(), other.begin(), other.end());
      std::sort(merged.begin(), merged.end());
      return merged;
    };

    Register(std::move(cars.description), std::move(cars.table));
    Register(std::move(books.description), std::move(books.table));

    const BookIndex book_index(book_table);
    const std::vector<std::string> top_authors(
        authors.begin(), authors.begin() + std::min<size_t>(8, authors.size()));
    const std::vector<std::string> letters = {"a", "e", "i", "o", "r", "n", "s", "t"};
    pool_.clear();
    Rng rng(StreamSeed(seed_, Stream::kWarmup, 0xb01c));
    for (size_t rank = 0; rank < kBulkQueries; ++rank) {
      // Target answer size fixed by rank (2k..8k rows at full scale), so the
      // Zipf-weighted mix of answer sizes does not depend on the seed.
      const size_t target = static_cast<size_t>(
          scale * (2000.0 + 6000.0 * static_cast<double>((rank * 29) % kBulkQueries) /
                                static_cast<double>(kBulkQueries - 1)));
      QuerySpec spec;
      if (rank % 4 != 3) {
        const std::string& style = styles[rng.Below(styles.size())];
        const auto [z1, z2] = TwoDistinct(&rng, sizes.size());
        const auto [m1, m2] = TwoDistinct(&rng, std::min<size_t>(3, makes.size()));
        const std::vector<int64_t> first = prices_for(style, sizes[z1], sizes[z2], makes[m1]);
        const std::vector<int64_t> second = prices_for(style, sizes[z1], sizes[z2], makes[m2]);
        const size_t rows1 = std::min(target / 2, first.size());
        const size_t rows2 = std::min(target - rows1, second.size());
        spec = CarQuery(style, sizes[z1], sizes[z2], makes[m1],
                        rows1 > 0 ? first[rows1 - 1] : 0, makes[m2],
                        rows2 > 0 ? second[rows2 - 1] : 0);
      } else {
        spec = book_index.Closest(top_authors, letters, target, 64, &rng);
      }
      pool_.push_back(Finish(std::move(spec)));
    }

    // Zipf(1.1) over ranks, as exact per-block quotas (largest remainder):
    // every block of count_window queries has the same composition, in a
    // seed-shuffled order.
    std::vector<double> weights;
    double total = 0.0;
    for (size_t rank = 0; rank < kBulkQueries; ++rank) {
      weights.push_back(1.0 / std::pow(static_cast<double>(rank + 1), 1.1));
      total += weights.back();
    }
    const size_t block = config_.count_window;
    quotas_.assign(kBulkQueries, 0);
    std::vector<std::pair<double, size_t>> remainders;
    size_t assigned = 0;
    for (size_t rank = 0; rank < kBulkQueries; ++rank) {
      const double exact = static_cast<double>(block) * weights[rank] / total;
      quotas_[rank] = static_cast<size_t>(exact);
      assigned += quotas_[rank];
      remainders.push_back({-(exact - static_cast<double>(quotas_[rank])), rank});
    }
    std::sort(remainders.begin(), remainders.end());
    for (size_t k = 0; assigned < block; ++k, ++assigned) {
      quotas_[remainders[k].second] += 1;
    }
    draws_.assign(4, {});
    rngs_.clear();
    for (size_t s = 0; s < 4; ++s) {
      rngs_.emplace_back(StreamSeed(seed_, static_cast<Stream>(s), 0x21bf));
    }
  }

  void AppendBlock(size_t s) {
    std::vector<size_t> block;
    for (size_t rank = 0; rank < kBulkQueries; ++rank) {
      block.insert(block.end(), quotas_[rank], rank);
    }
    for (size_t k = block.size(); k > 1; --k) {
      std::swap(block[k - 1], block[rngs_[s].Below(k)]);
    }
    draws_[s].insert(draws_[s].end(), block.begin(), block.end());
  }

  size_t warmup_queries() const override { return kBulkQueries; }

  std::vector<BenchQuery> pool_;
  std::vector<size_t> quotas_;
  std::vector<std::vector<size_t>> draws_;
  std::vector<Rng> rngs_;
};

// ---------------------------------------------------------------------------
// federated_openloop: independent users sending 2-, 3- and 5-source join
// chains and single-source bookstore queries at a fixed offered rate.
// ---------------------------------------------------------------------------

constexpr size_t kFederatedPool = 64;
constexpr int kChainRelations = 5;
constexpr int kChainRows = 300;
constexpr int kLinkValues = 256;

class FederatedOpenLoop : public Workload {
 public:
  FederatedOpenLoop(uint64_t seed, bool smoke)
      : Workload(MakeConfig(smoke), seed, smoke) {}

  const BenchQuery& Query(Stream stream, size_t i) override {
    if (stream == Stream::kWarmup) return pool_[i % pool_.size()];
    // Type and instance both cycle with i, from a seed-drawn offset: every
    // window of 64 queries has the same mix.
    const size_t offset = StreamSeed(seed_, stream, 0x0ff5e7) % 8;
    return pool_[((i / 8 + offset) % 8) * 8 + i % 8];
  }

 private:
  static WorkloadConfig MakeConfig(bool smoke) {
    WorkloadConfig config;
    config.name = "federated_openloop";
    config.open_loop = true;
    config.rate_qps = 120.0;
    const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
    config.clients = std::min<size_t>(3, cores - 1);
    config.tail_percentile = 99.0;
    config.count_window = smoke ? 16 : 800;
    config.trace_window = smoke ? 8 : 96;
    config.source_latency_us = 1000;
    config.options = MediatorOptions(0, 4);
    config.params = {{"rate_qps", Num(config.rate_qps)},
                     {"clients", std::to_string(config.clients)},
                     {"generator_threads", "1"},
                     {"source_round_trip_us", "1000"},
                     {"chain_rows", std::to_string(kChainRows)},
                     {"books_rows", std::to_string(BooksRows(smoke))},
                     {"mix", "per 8 queries: 2x 2-chain, 3x 3-chain, 2x 5-chain, 1x Example-1.1"}};
    return config;
  }
  static size_t BooksRows(bool smoke) { return smoke ? 2000 : 20000; }

  void Build() override {
    gencompact::Dataset books =
        gencompact::MakeBookstore(BooksRows(smoke_), Mix(seed_ ^ 0xb00c));
    const std::vector<std::string> authors = ByFrequency(*books.table, "author");
    const std::vector<std::string> top_authors(
        authors.begin(), authors.begin() + std::min<size_t>(50, authors.size()));
    const std::vector<std::string> words = TitleWords(*books.table, "title");
    const BookIndex book_index(*books.table);
    Register(std::move(books.description), std::move(books.table));

    // Chain relations r0..r4 (lk, rk, v). r1 and r3 have no download and
    // require lk, so they are reachable only through a bind join on lk.
    Schema schema({{"lk", ValueType::kString},
                   {"rk", ValueType::kString},
                   {"v", ValueType::kInt}});
    for (int r = 0; r < kChainRelations; ++r) {
      const std::string name = "r" + std::to_string(r);
      const bool bind_only = r % 2 == 1;
      CapabilityBuilder builder(name, schema);
      Status built;
      if (bind_only) {
        built = builder.AddConjunctiveForm(
            "f",
            {{"lk", {CompareOp::kEq}, false, true},
             {"v", {CompareOp::kLt}, true, false}},
            {"lk", "rk", "v"});
      } else {
        built = builder.AddConjunctiveForm(
            "f",
            {{"v", {CompareOp::kLt}, true, false},
             {"lk", {CompareOp::kEq}, true, true},
             {"rk", {CompareOp::kEq}, true, true}},
            {"lk", "rk", "v"});
        if (built.ok()) built = builder.AddDownload("dl", {"lk", "rk", "v"});
      }
      if (!built.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", built.ToString().c_str());
        std::abort();
      }
      SourceDescription description = builder.Build();
      description.set_cost_constants(10.0, 1.0);
      auto table = std::make_unique<Table>(name, schema);
      // Balanced columns, paired at random: every link value occurs equally
      // often in lk and in rk, and v is an even grid over [0, 1000), so a
      // filter v < c selects the same number of rows for every seed; only
      // which rows pair up varies.
      Rng rng(StreamSeed(seed_, Stream::kWarmup, 0xc4a1 + static_cast<uint64_t>(r)));
      std::vector<int> lks(kChainRows);
      std::vector<int> rks(kChainRows);
      for (int i = 0; i < kChainRows; ++i) lks[i] = rks[i] = i % kLinkValues;
      for (std::vector<int>* column : {&lks, &rks}) {
        for (size_t k = column->size(); k > 1; --k) {
          std::swap((*column)[k - 1], (*column)[rng.Below(k)]);
        }
      }
      for (int i = 0; i < kChainRows; ++i) {
        char lk[16];
        char rk[16];
        std::snprintf(lk, sizeof(lk), "x%03d", lks[i]);
        std::snprintf(rk, sizeof(rk), "x%03d", rks[i]);
        (void)table->AppendValues({Value::String(lk), Value::String(rk),
                                   Value::Int(i * 1000 / kChainRows)});
      }
      Register(std::move(description), std::move(table));
    }
    for (const std::string& source : sources_) {
      mediator_->catalog()->Find(source).value()->source()->set_simulated_latency(
          std::chrono::microseconds(config_.source_latency_us));
    }

    pool_.clear();
    Rng rng(StreamSeed(seed_, Stream::kWarmup, 0xfede));
    for (size_t j = 0; j < kFederatedPool; ++j) {
      // Chains by type: first relation and length; type 7 is a bookstore
      // query. The mix puts the median inside the 3-chains.
      static const int kStart[] = {0, 2, 0, 2, 0, 0, 0};
      static const int kLength[] = {2, 2, 3, 3, 3, 5, 5};
      const size_t type = j % 8;
      QuerySpec spec;
      if (type < 7) {
        const int first = kStart[type];
        const int length = kLength[type];
        for (int r = first; r < first + length; ++r) {
          spec.relations.push_back({"r" + std::to_string(r), Pred::And({})});
          if (r > first) spec.links.push_back({"rk", "lk"});
        }
        // Only the driving relation filters (a pushdown on a relation the
        // planner then reaches by bind join is planned again for every bind
        // batch, at seconds per batch), with selectivity on a fixed grid
        // over the type's eight instances.
        const int64_t instance = static_cast<int64_t>(j / 8);
        spec.relations.front().local =
            Pred::Atom("v", Op::kLt, Value::Int(20 + (200 * instance + 100) / 16));
        const size_t last = spec.relations.size() - 1;
        spec.select = {{0, "lk"}, {0, "v"}, {last, "rk"}, {last, "v"}};
      } else {
        spec = book_index.Closest(top_authors, words, 30, 32, &rng);
      }
      pool_.push_back(Finish(std::move(spec)));
    }
  }

  size_t warmup_queries() const override { return kFederatedPool; }

  std::vector<BenchQuery> pool_;
};

}  // namespace

void Workload::Register(SourceDescription description,
                        std::unique_ptr<Table> table) {
  const std::string name = description.source_name();
  const Status status =
      mediator_->RegisterSource(std::move(description), std::move(table));
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: registering %s: %s\n", name.c_str(),
                 status.ToString().c_str());
    std::abort();
  }
  oracle_.AddTable(name, &mediator_->catalog()->Find(name).value()->table());
  sources_.push_back(name);
}

BenchQuery Workload::Finish(QuerySpec spec) const {
  BenchQuery query;
  query.sql = RenderSql(spec);
  query.expected = oracle_.Answer(spec);
  query.spec = std::move(spec);
  return query;
}

bool Workload::SetUp() {
  oracle_ = Oracle();
  sources_.clear();
  mediator_.reset();
  mediator_ = std::make_unique<Mediator>(config_.options);
  Build();
  for (size_t i = 0; i < warmup_queries(); ++i) {
    const BenchQuery& query = Query(Stream::kWarmup, i);
    const auto result = mediator_->Query(query.sql);
    if (!result.ok() || DigestRowSet(result->rows) != query.expected) {
      std::fprintf(stderr, "perfbench: warm-up query failed: %s\n  %s\n",
                   query.sql.c_str(),
                   result.ok() ? "answer differs from the oracle"
                               : result.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"form_new_constants", "recurring_bulk", "federated_openloop"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke) {
  if (name == "form_new_constants") {
    return std::make_unique<FormNewConstants>(seed, smoke);
  }
  if (name == "recurring_bulk") return std::make_unique<RecurringBulk>(seed, smoke);
  if (name == "federated_openloop") {
    return std::make_unique<FederatedOpenLoop>(seed, smoke);
  }
  return nullptr;
}

}  // namespace perfbench
