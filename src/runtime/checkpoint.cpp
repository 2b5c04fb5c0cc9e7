#include "runtime/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/solve_model.hpp"
#include "verify/codec.hpp"

namespace dopf::runtime {

namespace {

using dopf::verify::crc32;
using dopf::verify::hex_double;
using dopf::verify::parse_double_token;

void write_vector(std::ostream& out, const char* name,
                  const std::vector<double>& v) {
  out << name << ' ' << v.size() << '\n';
  for (double value : v) out << "v " << hex_double(value) << '\n';
}

class Lines {
 public:
  explicit Lines(std::istream& in) : in_(in) {}

  std::vector<std::string> next() {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++no_;
      std::istringstream ss(raw);
      std::vector<std::string> tokens;
      std::string t;
      while (ss >> t) tokens.push_back(t);
      if (!tokens.empty()) return tokens;
    }
    return {};
  }

  int line_no() const { return no_; }

 private:
  std::istream& in_;
  int no_ = 0;
};

double parse_number(const std::string& token, int line_no) {
  double v = 0.0;
  if (!parse_double_token(token, &v)) {
    throw CheckpointError("checkpoint line " + std::to_string(line_no) +
                          ": bad number '" + token + "'");
  }
  return v;
}

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string payload_string(const AdmmCheckpoint& ck) {
  std::ostringstream body;
  body << "label " << (ck.label.empty() ? "-" : ck.label) << '\n';
  body << "iteration " << ck.iteration << '\n';
  body << "rho " << hex_double(ck.rho) << '\n';
  // Fingerprint lines are emitted only when known, so a legacy-shaped
  // checkpoint (both zero) round-trips byte-for-byte.
  if (ck.model_fingerprint != 0) {
    body << "model_fp " << hex_u64(ck.model_fingerprint) << '\n';
  }
  if (ck.scenario_fingerprint != 0) {
    body << "scenario_fp " << hex_u64(ck.scenario_fingerprint) << '\n';
  }
  // Like the fingerprints: only A/B-store checkpoints carry a generation,
  // so single-file checkpoints (and the committed goldens) are unchanged.
  if (ck.generation != 0) {
    body << "generation " << ck.generation << '\n';
  }
  write_vector(body, "x", ck.x);
  write_vector(body, "z", ck.z);
  write_vector(body, "z_prev", ck.z_prev);
  write_vector(body, "lambda", ck.lambda);
  return body.str();
}

}  // namespace

AdmmCheckpoint AdmmCheckpoint::capture(const dopf::core::SolverFreeAdmm& admm,
                                       int iteration, std::string label) {
  AdmmCheckpoint ck;
  ck.label = std::move(label);
  ck.model_fingerprint = dopf::core::topology_fingerprint(admm.packed());
  ck.scenario_fingerprint = dopf::core::scenario_fingerprint(admm.packed());
  admm.capture(iteration, &ck);
  return ck;
}

void AdmmCheckpoint::validate_for(const dopf::core::SolverFreeAdmm& admm,
                                  const std::string& expected_label) const {
  if (!expected_label.empty() && !label.empty() && label != expected_label) {
    throw CheckpointError("checkpoint was recorded on '" + label +
                          "' but this run solves '" + expected_label +
                          "' — refusing to restore");
  }
  auto check = [&](const char* name, std::size_t got, std::size_t want) {
    if (got != want) {
      throw CheckpointError(
          "checkpoint" + (label.empty() ? std::string() : " '" + label + "'") +
          " does not fit this problem: " + name + " has " +
          std::to_string(got) + " value(s), solver expects " +
          std::to_string(want) + " — wrong feeder or partition?");
    }
  };
  check("x", x.size(), admm.x().size());
  check("z", z.size(), admm.z().size());
  check("z_prev", z_prev.size(), admm.z_prev().size());
  check("lambda", lambda.size(), admm.lambda().size());
  if (model_fingerprint != 0 &&
      model_fingerprint != dopf::core::topology_fingerprint(admm.packed())) {
    throw CheckpointError(
        "checkpoint model fingerprint does not match the solver's bound "
        "topology — the model was edited (or is a different feeder) since "
        "this checkpoint was recorded; refusing to restore");
  }
  if (scenario_fingerprint != 0 &&
      scenario_fingerprint !=
          dopf::core::scenario_fingerprint(admm.packed())) {
    throw CheckpointError(
        "checkpoint scenario fingerprint does not match the solver's bound "
        "scenario data — loads/costs/bounds were rebound since this "
        "checkpoint was recorded; refusing to restore");
  }
}

void AdmmCheckpoint::restore(dopf::core::SolverFreeAdmm* admm,
                             const std::string& expected_label) const {
  validate_for(*admm, expected_label);
  admm->restore_state(*this);
}

void write_checkpoint(const AdmmCheckpoint& ck, std::ostream& out) {
  const std::string body = payload_string(ck);
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc %08" PRIx32, crc32(body));
  out << "dopf-checkpoint v1\n" << body << crc_line << "\nend\n";
}

AdmmCheckpoint read_checkpoint(std::istream& in) {
  // Slurp so the CRC can cover the exact payload bytes between the header
  // line and the crc line.
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string text = slurp.str();

  const auto header_end = text.find('\n');
  if (header_end == std::string::npos ||
      text.substr(0, header_end) != "dopf-checkpoint v1") {
    throw CheckpointError("not a dopf-checkpoint v1 file");
  }
  const auto crc_pos = text.rfind("\ncrc ");
  if (crc_pos == std::string::npos || crc_pos < header_end) {
    throw CheckpointError("checkpoint: missing crc line (truncated file?)");
  }
  const std::string body = text.substr(header_end + 1,
                                       crc_pos + 1 - (header_end + 1));

  std::istringstream tail(text.substr(crc_pos + 1));
  Lines tail_lines(tail);
  const auto crc_tokens = tail_lines.next();
  if (crc_tokens.size() != 2 || crc_tokens[0] != "crc") {
    throw CheckpointError("checkpoint: malformed crc line");
  }
  std::uint32_t stored = 0;
  if (std::sscanf(crc_tokens[1].c_str(), "%8" SCNx32, &stored) != 1) {
    throw CheckpointError("checkpoint: malformed crc value '" +
                          crc_tokens[1] + "'");
  }
  const std::uint32_t actual = crc32(body);
  if (stored != actual) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "checkpoint: CRC mismatch (stored %08" PRIx32
                  ", payload %08" PRIx32 ") — file corrupted",
                  stored, actual);
    throw CheckpointError(msg);
  }
  const auto end_tokens = tail_lines.next();
  if (end_tokens.empty() || end_tokens[0] != "end") {
    throw CheckpointError("checkpoint: missing 'end' terminator");
  }

  std::istringstream body_in(body);
  Lines lines(body_in);
  auto expect = [&](const std::vector<std::string>& tokens, const char* key,
                    std::size_t count) {
    if (tokens.empty() || tokens[0] != key || tokens.size() != count + 1) {
      throw CheckpointError("checkpoint line " +
                            std::to_string(lines.line_no()) + ": expected '" +
                            key + "' with " + std::to_string(count) +
                            " value(s)");
    }
  };
  auto read_vector = [&](std::vector<std::string> header, const char* name,
                         std::vector<double>* out) {
    expect(header, name, 1);
    const auto count =
        static_cast<std::size_t>(parse_number(header[1], lines.line_no()));
    out->reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto tokens = lines.next();
      expect(tokens, "v", 1);
      out->push_back(parse_number(tokens[1], lines.line_no()));
    }
  };

  AdmmCheckpoint ck;
  auto tokens = lines.next();
  expect(tokens, "label", 1);
  ck.label = tokens[1] == "-" ? std::string() : tokens[1];
  tokens = lines.next();
  expect(tokens, "iteration", 1);
  ck.iteration = static_cast<int>(parse_number(tokens[1], lines.line_no()));
  tokens = lines.next();
  expect(tokens, "rho", 1);
  ck.rho = parse_number(tokens[1], lines.line_no());
  // Optional fingerprint lines (absent in legacy v1 files: 0 = unknown).
  tokens = lines.next();
  auto parse_fp = [&](const char* key, std::uint64_t* out) {
    if (tokens.empty() || tokens[0] != key) return;
    expect(tokens, key, 1);
    char* end = nullptr;
    *out = std::strtoull(tokens[1].c_str(), &end, 16);
    if (end == nullptr || *end != '\0') {
      throw CheckpointError("checkpoint line " +
                            std::to_string(lines.line_no()) +
                            ": bad fingerprint '" + tokens[1] + "'");
    }
    tokens = lines.next();
  };
  parse_fp("model_fp", &ck.model_fingerprint);
  parse_fp("scenario_fp", &ck.scenario_fingerprint);
  if (!tokens.empty() && tokens[0] == "generation") {
    expect(tokens, "generation", 1);
    char* end = nullptr;
    ck.generation = std::strtoull(tokens[1].c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      throw CheckpointError("checkpoint line " +
                            std::to_string(lines.line_no()) +
                            ": bad generation '" + tokens[1] + "'");
    }
    tokens = lines.next();
  }
  read_vector(tokens, "x", &ck.x);
  read_vector(lines.next(), "z", &ck.z);
  read_vector(lines.next(), "z_prev", &ck.z_prev);
  read_vector(lines.next(), "lambda", &ck.lambda);
  return ck;
}

IoStats save_checkpoint(const AdmmCheckpoint& ck, const std::string& path,
                        const DurableOptions& opts) {
  std::ostringstream out;
  write_checkpoint(ck, out);
  if (!out) {
    throw CheckpointError("checkpoint serialization failed for: " + path);
  }
  return durable_write_file(path, out.str(), opts);
}

AdmmCheckpoint load_checkpoint(const std::string& path,
                               const DurableOptions& opts) {
  std::string text;
  try {
    text = durable_read_file(path, opts);
  } catch (const IoError& e) {
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
  std::istringstream in(text);
  return read_checkpoint(in);
}

std::size_t checkpoint_bytes(const AdmmCheckpoint& ck) {
  return sizeof(double) *
             (ck.x.size() + ck.z.size() + ck.z_prev.size() +
              ck.lambda.size()) +
         sizeof(double) + sizeof(int);
}

namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

/// Best-effort slot probe: a missing, torn, or corrupt slot yields
/// (false, diagnostic) instead of throwing — the store decides whether
/// falling back or failing is appropriate.
bool probe_slot(const std::string& path, const DurableOptions& opts,
                AdmmCheckpoint* out, std::string* diagnostic) {
  if (!file_exists(path)) {
    *diagnostic = path + ": no such file";
    return false;
  }
  try {
    *out = load_checkpoint(path, opts);
    return true;
  } catch (const CheckpointError& e) {
    *diagnostic = path + ": " + e.what();
    return false;
  }
}

}  // namespace

CheckpointStore::CheckpointStore(std::string base_path, DurableOptions opts)
    : base_path_(std::move(base_path)), opts_(opts) {}

bool CheckpointStore::any_slot_exists() const {
  return file_exists(slot_a()) || file_exists(slot_b());
}

IoStats CheckpointStore::save(AdmmCheckpoint ck) {
  if (!scanned_) {
    // Adopt whatever generations are already on disk (a resumed process
    // must keep the counter monotonic, or load() would prefer stale state).
    AdmmCheckpoint a, b;
    std::string ignore;
    const bool a_ok = probe_slot(slot_a(), opts_, &a, &ignore);
    const bool b_ok = probe_slot(slot_b(), opts_, &b, &ignore);
    const std::uint64_t gen_a = a_ok ? a.generation : 0;
    const std::uint64_t gen_b = b_ok ? b.generation : 0;
    next_generation_ = (gen_a > gen_b ? gen_a : gen_b) + 1;
    // Overwrite the OLDER slot; the newest valid generation stays intact
    // until the replacement write has fully landed.
    next_slot_ = gen_a > gen_b ? 1 : 0;
    scanned_ = true;
  }
  ck.generation = next_generation_;
  const std::string path = next_slot_ == 0 ? slot_a() : slot_b();
  const IoStats stats = save_checkpoint(ck, path, opts_);
  ++next_generation_;
  next_slot_ = 1 - next_slot_;
  return stats;
}

CheckpointStore::Loaded CheckpointStore::load() const {
  AdmmCheckpoint a, b;
  std::string diag_a, diag_b;
  const bool a_ok = probe_slot(slot_a(), opts_, &a, &diag_a);
  const bool b_ok = probe_slot(slot_b(), opts_, &b, &diag_b);
  if (!a_ok && !b_ok) {
    throw CheckpointError("checkpoint store '" + base_path_ +
                          "': no loadable slot (" + diag_a + "; " + diag_b +
                          ")");
  }
  Loaded loaded;
  if (a_ok && b_ok) {
    const bool prefer_a = a.generation >= b.generation;
    loaded.checkpoint = prefer_a ? a : b;
    loaded.path = prefer_a ? slot_a() : slot_b();
    return loaded;
  }
  // Exactly one slot is loadable. That is the normal state before the
  // second save ever happened (the other slot is simply missing); it is a
  // torn-write FALLBACK when the dead slot exists but failed its CRC.
  loaded.checkpoint = a_ok ? a : b;
  loaded.path = a_ok ? slot_a() : slot_b();
  const std::string& dead_diag = a_ok ? diag_b : diag_a;
  const std::string dead_path = a_ok ? slot_b() : slot_a();
  if (file_exists(dead_path)) {
    loaded.fell_back = true;
    loaded.diagnostic = "fell back to generation " +
                        std::to_string(loaded.checkpoint.generation) + " (" +
                        loaded.path + "): " + dead_diag;
  }
  return loaded;
}

CheckpointStore::Loaded resolve_checkpoint(const std::string& path,
                                           const DurableOptions& opts) {
  const CheckpointStore store(path, opts);
  if (store.any_slot_exists()) return store.load();
  CheckpointStore::Loaded loaded;
  loaded.checkpoint = load_checkpoint(path, opts);
  loaded.path = path;
  return loaded;
}

}  // namespace dopf::runtime
