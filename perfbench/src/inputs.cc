#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "rdb/table.h"
#include "rdb/value.h"

namespace navbench {

using mix::rdb::Database;
using mix::xml::Document;
using mix::xml::Node;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b) {
  Rng rng(seed ^ (a * 0x632be59bd9b4e019ull) ^ (b * 0x8cb92ba72f3d8dd7ull));
  rng.Next();
  return rng.Next();
}

std::string ZipLabel(int k) { return std::to_string(91000 + k); }

namespace {

/// Zip index of each of `n` records. Every zip is used equally often (up
/// to one) and the positions follow a fixed `layout`; the seed only
/// relabels the zips. So which records join, and where in document order
/// the matches fall, is the same for every seed: the seed changes the
/// inputs' values, not the amount of work they take.
std::vector<int> BalancedZips(int n, int zips, uint64_t layout,
                              uint64_t seed) {
  auto shuffle = [](std::vector<int>* v, uint64_t s) {
    Rng rng(s);
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
    }
  };
  std::vector<int> out(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<size_t>(i)] = i % zips;
  shuffle(&out, layout);
  std::vector<int> label(static_cast<size_t>(zips));
  for (int z = 0; z < zips; ++z) label[static_cast<size_t>(z)] = z;
  shuffle(&label, seed);
  for (int& z : out) z = label[static_cast<size_t>(z)];
  return out;
}

std::unique_ptr<Document> MakeRecords(const char* root_tag,
                                      const char* record_tag,
                                      const char* field_tag,
                                      const char* field_text, int n, int zips,
                                      uint64_t layout, uint64_t seed) {
  auto doc = std::make_unique<Document>();
  const std::vector<int> zip_of = BalancedZips(n, zips, layout, seed);
  Node* root = doc->NewElement(root_tag);
  for (int i = 0; i < n; ++i) {
    Node* record = doc->NewElement(record_tag);
    Node* field = doc->NewElement(field_tag);
    doc->AppendChild(field,
                     doc->NewText(std::string(field_text) + std::to_string(i)));
    Node* zip = doc->NewElement("zip");
    doc->AppendChild(zip,
                     doc->NewText(ZipLabel(zip_of[static_cast<size_t>(i)])));
    doc->AppendChild(record, field);
    doc->AppendChild(record, zip);
    doc->AppendChild(root, record);
  }
  doc->set_root(root);
  return doc;
}

std::unique_ptr<Database> MakeTable(const char* db_name, const char* table,
                                    const char* text_col,
                                    const char* text_prefix, int rows,
                                    int zips, uint64_t layout, uint64_t seed) {
  auto db = std::make_unique<Database>(db_name);
  mix::rdb::Schema schema({{text_col, mix::rdb::Type::kString},
                           {"zip", mix::rdb::Type::kInt}});
  mix::rdb::Table* t = db->CreateTable(table, schema).ValueOrDie();
  const std::vector<int> zip_of = BalancedZips(rows, zips, layout, seed);
  for (int i = 0; i < rows; ++i) {
    int64_t zip = 91000 + zip_of[static_cast<size_t>(i)];
    MIX_CHECK(t->Insert({mix::rdb::Value(text_prefix + std::to_string(i)),
                         mix::rdb::Value(zip)})
                  .ok());
  }
  return db;
}

}  // namespace

std::unique_ptr<Document> MakeHomes(int n, int zips, uint64_t seed) {
  return MakeRecords("homes", "home", "addr", "street ", n, zips, 1, seed);
}

std::unique_ptr<Document> MakeSchools(int n, int zips, uint64_t seed) {
  return MakeRecords("schools", "school", "dir", "director ", n, zips, 2,
                     seed);
}

std::unique_ptr<Database> MakeRealty(int rows, int zips, uint64_t seed) {
  return MakeTable("realty", "homes", "addr", "street ", rows, zips, 3, seed);
}

std::unique_ptr<Database> MakeEdu(int rows, int zips, uint64_t seed) {
  return MakeTable("edu", "schools", "dir", "dir ", rows, zips, 4, seed);
}

std::unique_ptr<Document> DatabaseDocument(const Database& db) {
  auto doc = std::make_unique<Document>();
  Node* root = doc->NewElement(db.name());
  for (const std::string& name : db.table_names()) {
    const mix::rdb::Table* table = db.GetTable(name);
    Node* t = doc->NewElement(name);
    const auto& columns = table->schema().columns();
    for (int64_t r = 0; r < table->row_count(); ++r) {
      const mix::rdb::Row& row = table->row(r);
      Node* row_node = doc->NewElement("row");
      for (size_t c = 0; c < columns.size(); ++c) {
        Node* col = doc->NewElement(columns[c].name);
        doc->AppendChild(col, doc->NewText(row[c].ToString()));
        doc->AppendChild(row_node, col);
      }
      doc->AppendChild(t, row_node);
    }
    doc->AppendChild(root, t);
  }
  doc->set_root(root);
  return doc;
}

std::string Fig3Query() {
  return "CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} "
         "</answer> {} "
         "WHERE homesSrc homes.home $H AND $H zip._ $V1 "
         "AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2";
}

std::string Fig3ZipQuery(const std::string& zip) {
  return Fig3Query() + " AND $V1 = '" + zip + "'";
}

std::string ZipsQuery() {
  return "CONSTRUCT <answer> $V {$V} </answer> {} "
         "WHERE homesSrc homes.home.zip._ $V";
}

std::string ZipsNarrowQuery(const std::string& op, const std::string& zip) {
  return ZipsQuery() + " AND $V " + op + " '" + zip + "'";
}

std::string RelScanQuery(const std::string& zip) {
  return "CONSTRUCT <hits> $R {$R} </hits> {} "
         "WHERE realty realty.homes.row $R AND $R zip._ $Z AND $Z = '" +
         zip + "'";
}

std::string RelJoinQuery(const std::string& zip) {
  return "CONSTRUCT <pairs> <pair> $R $S {$S} </pair> {$R} </pairs> {} "
         "WHERE realty realty.homes.row $R AND $R zip._ $Z1 "
         "AND edu edu.schools.row $S AND $S zip._ $Z2 "
         "AND $Z1 = $Z2 AND $Z1 = '" +
         zip + "' AND $Z2 = '" + zip + "'";
}

ZipfLaw::ZipfLaw(int n, double s) {
  cdf_.reserve(static_cast<size_t>(n));
  double total = 0;
  for (int k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

double ZipfLaw::Probability(int rank) const {
  size_t r = static_cast<size_t>(rank);
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

std::vector<int64_t> PoissonArrivals(double rate_per_s, double seconds,
                                     uint64_t seed) {
  std::vector<int64_t> due;
  Rng rng(seed);
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.Unit()) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

std::vector<Step> MakeScript(const ScriptShape& shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<Step> steps;
  auto arg = [&rng] { return static_cast<uint32_t>(rng.Next() >> 32); };
  if (shape.full_answer) steps.push_back({Op::kFullAnswer, 0});
  for (int i = 0; i < shape.small_steps; ++i) {
    // Weights (of 100): d 24, r 24, f 20, NthChild 8, DownAll 6,
    // NextSiblings 6, up 12. These are assumptions, not measured client
    // behaviour: no recorded client trace exists yet (README.md, "Where
    // the numbers come from").
    uint64_t pick = rng.Uniform(100);
    Op op = pick < 24   ? Op::kDown
            : pick < 48 ? Op::kRight
            : pick < 68 ? Op::kFetch
            : pick < 76 ? Op::kNth
            : pick < 82 ? Op::kDownAll
            : pick < 88 ? Op::kNextSiblings
                        : Op::kUp;
    steps.push_back({op, arg()});
  }
  if (shape.subtree_of_child) steps.push_back({Op::kSubtreeOfChild, arg()});
  if (rng.Unit() < shape.walk_share) steps.push_back({Op::kWalkToEnd, 0});
  return steps;
}

}  // namespace navbench
