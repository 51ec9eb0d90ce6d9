// Seeded input generation for the navigation benchmark.
//
// Everything a run feeds the mediator is derived here from the run's
// --seed: the source documents and tables, the query pool's constants, the
// Zipf popularity draws, the open-loop arrival schedule and the client
// navigation scripts. The program under test only ever sees the generated
// documents, tables and query texts.
#ifndef NAVBENCH_INPUTS_H_
#define NAVBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rdb/database.h"
#include "xml/tree.h"

namespace navbench {

/// SplitMix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent sub-seed (per workload part, thread, session).
uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Zip code label k (five digits, so numeric and lexicographic orders of
/// the generated constants agree).
std::string ZipLabel(int k);

/// homes[home[addr[street i], zip[z]]*], each of `zips` values used equally
/// often. Records of every kind sit in a fixed zip layout; `seed` relabels
/// the zips, and sources that must join use the same seed.
std::unique_ptr<mix::xml::Document> MakeHomes(int n, int zips, uint64_t seed);
/// schools[school[dir[director i], zip[z]]*].
std::unique_ptr<mix::xml::Document> MakeSchools(int n, int zips,
                                                uint64_t seed);
/// realty.homes(addr string, zip int) and edu.schools(dir string, zip int).
std::unique_ptr<mix::rdb::Database> MakeRealty(int rows, int zips,
                                               uint64_t seed);
std::unique_ptr<mix::rdb::Database> MakeEdu(int rows, int zips,
                                            uint64_t seed);
/// The relational wrapper's whole-database view (db[table[row[col[v]]*]*])
/// as a document: the reference evaluator's and depth-1 replay's copy of a
/// relational source.
std::unique_ptr<mix::xml::Document> DatabaseDocument(
    const mix::rdb::Database& db);

/// Query texts of the pool. Sources: homesSrc/schoolsSrc (XML), realty/edu
/// (relational, whole-database view).
std::string Fig3Query();
std::string Fig3ZipQuery(const std::string& zip);
std::string ZipsQuery();
/// `op` is a comparison operator, e.g. "<" or "=".
std::string ZipsNarrowQuery(const std::string& op, const std::string& zip);
std::string RelScanQuery(const std::string& zip);
std::string RelJoinQuery(const std::string& zip);

/// The Zipf(s) law over ranks 0..n-1 (rank 0 most popular).
class ZipfLaw {
 public:
  ZipfLaw(int n, double s);
  double Probability(int rank) const;

 private:
  std::vector<double> cdf_;
};

/// Poisson arrivals at `rate_per_s` over [0, seconds): due offsets in ns,
/// ascending.
std::vector<int64_t> PoissonArrivals(double rate_per_s, double seconds,
                                     uint64_t seed);

/// One client navigation step. The executor (script.h) resolves each step
/// against the live answer; `arg` supplies the step's random choices, so a
/// script is a pure function of its seed.
enum class Op : uint8_t {
  kDown,           ///< d
  kRight,          ///< r (back to the parent's level at the end of a list)
  kFetch,          ///< f
  kNth,            ///< NthChild
  kDownAll,        ///< DownAll, then continue at one of the children
  kNextSiblings,   ///< NextSiblings(limit 1..4), continue at the last one
  kUp,             ///< client-side: back to the parent (no command)
  kSubtreeOfChild, ///< NthChild(root, i) + FetchSubtree(-1): one answer item
  kWalkToEnd,      ///< d(root), then r+f over every top-level answer item
  kFullAnswer,     ///< FetchSubtree(root, -1): the whole answer as a term
};

struct Step {
  Op op;
  uint32_t arg;
};

struct ScriptShape {
  /// Small d/r/f/NthChild/DownAll/NextSiblings/up steps per session.
  int small_steps = 0;
  /// Sessions that end with a walk to the end of the answer.
  double walk_share = 0;
  /// One FetchSubtree of a random top-level answer item.
  bool subtree_of_child = false;
  /// The session starts by fetching the whole answer.
  bool full_answer = false;
};

std::vector<Step> MakeScript(const ScriptShape& shape, uint64_t seed);

/// One client session: a pool query and the script run on its answer.
struct SessionSpec {
  int query = 0;
  std::vector<Step> steps;
};

}  // namespace navbench

#endif  // NAVBENCH_INPUTS_H_
