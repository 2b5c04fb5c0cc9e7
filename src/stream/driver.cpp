#include "stream/driver.hpp"

#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "opf/model.hpp"
#include "robust/preflight.hpp"
#include "runtime/checkpoint.hpp"
#include "verify/codec.hpp"

namespace dopf::stream {

namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace

StreamDriver::StreamDriver(const dopf::network::Network& base,
                           const StreamProfile& profile,
                           StreamOptions options)
    : base_(&base), profile_(&profile), options_(std::move(options)) {
  if (profile.num_steps <= 0) {
    throw StreamError(0, "profile has no steps");
  }
  if (options_.checkpoint_at_step >= 0) {
    if (options_.checkpoint_path.empty()) {
      throw StreamError(options_.checkpoint_at_step,
                        "checkpoint step set but no checkpoint path");
    }
    if (options_.checkpoint_at_step >= profile.num_steps) {
      throw StreamError(options_.checkpoint_at_step,
                        "checkpoint step out of range (steps " +
                            std::to_string(profile.num_steps) + ")");
    }
  }
  if (options_.checkpoint_every_steps > 0 && options_.checkpoint_path.empty()) {
    throw StreamError(0, "checkpoint cadence set but no checkpoint path");
  }
}

StreamResult StreamDriver::run() {
  const auto base_model = dopf::opf::build_model(*base_);
  auto base_problem =
      dopf::opf::decompose(*base_, base_model, options_.decompose);

  // Thread the step-boundary token into the per-step solves too, so a
  // cancellation raised mid-solve stops within one check cadence instead
  // of waiting for the step to finish.
  if (options_.cancel != nullptr && options_.admm.cancel == nullptr) {
    options_.admm.cancel = options_.cancel;
  }

  dopf::core::SolveModel model(base_problem, options_.admm.projector);
  dopf::core::ScenarioBinding binding(model);
  dopf::core::SolveSession session(binding, options_.admm);
  if (options_.make_backend) session.set_backend(options_.make_backend());

  dopf::robust::PreflightOptions popt;
  const bool preflight_on = options_.preflight != "off";
  if (preflight_on) {
    popt.policy = dopf::robust::parse_policy(options_.preflight);
    popt.decompose = options_.decompose;
  }

  StreamResult result;
  if (!options_.resume_path.empty()) {
    // Resume: profile blocks are absolute against base, so the binding is
    // fast-forwarded with ONE rebind to the checkpoint step's scenario;
    // the resulting pack is bit-identical to the uninterrupted run's pack
    // at that step (ScenarioBinding contract), which the checkpoint's
    // model/scenario fingerprints verify before any state is restored.
    // A/B-store resumes prefer the newest valid generation and fall back
    // to the previous one (with a diagnostic) when the newest is torn.
    auto loaded =
        dopf::runtime::resolve_checkpoint(options_.resume_path,
                                          options_.durable);
    if (loaded.fell_back) result.resume_fallback = loaded.diagnostic;
    auto ck = std::move(loaded.checkpoint);
    const int k = ck.iteration;  // stream checkpoints store the step index
    if (k < 0 || k >= profile_->num_steps) {
      throw StreamError(k, "checkpoint step out of range (steps " +
                               std::to_string(profile_->num_steps) + ")");
    }
    if (k + 1 >= profile_->num_steps) {
      throw StreamError(k, "checkpoint taken at the final step; "
                           "nothing to resume");
    }
    const auto net_k = network_at_step(*base_, *profile_, k);
    auto problem_k =
        dopf::opf::decompose(net_k, dopf::opf::build_model(net_k),
                             options_.decompose);
    try {
      session.rebind(problem_k);
      ck.validate_for(session.solver(), profile_->name);
    } catch (const std::invalid_argument& e) {
      throw StreamError(k, std::string("layout change rejected: ") +
                               e.what());
    } catch (const dopf::runtime::CheckpointError& e) {
      throw StreamError(k, e.what());
    }
    ck.iteration = 0;  // the step's warm solve starts a fresh count
    session.solver().restore_state(ck);
    session.mark_warm();
    result.first_step = k + 1;
  }

  // The A/B checkpoint store for the periodic cadence and for the final
  // on-cancel checkpoint; `last_good` is the state after the most recent
  // COMPLETED step (a mid-solve cancellation must not checkpoint the
  // half-iterated state it interrupted).
  dopf::runtime::CheckpointStore store(options_.checkpoint_path,
                                       options_.durable);
  dopf::runtime::AdmmCheckpoint last_good;
  bool have_last_good = false;
  const bool durable_checkpoints = !options_.checkpoint_path.empty();
  auto cancelled_now = [&] {
    return options_.cancel != nullptr && options_.cancel->cancelled();
  };
  auto finish_cancelled = [&] {
    result.cancelled = true;
    result.cancel_reason =
        options_.cancel != nullptr ? options_.cancel->reason() : "cancelled";
    if (durable_checkpoints && have_last_good) {
      result.io += store.save(last_good);
    }
  };

  for (int k = result.first_step; k < profile_->num_steps; ++k) {
    if (cancelled_now()) {
      finish_cancelled();
      break;
    }
    const auto net_k = network_at_step(*base_, *profile_, k);
    const auto model_k = dopf::opf::build_model(net_k);
    auto problem_k = dopf::opf::decompose(net_k, model_k, options_.decompose);

    StreamStepRecord rec;
    rec.step = k;

    if (preflight_on) {
      const auto pre = dopf::robust::run_scenario_preflight(
          model.problem(), problem_k, popt);
      rec.preflight_ran = true;
      rec.preflight_reused = pre.scenario_components_reused;
      if (!pre.accepted) throw StreamPreflightError(k, pre.rejection);
    }

    try {
      rec.rebind = session.rebind(problem_k);
    } catch (const std::invalid_argument& e) {
      throw StreamError(k, std::string("layout change rejected: ") +
                               e.what());
    }
    rec.switched = rec.rebind.refactorizations > 0;
    if (options_.reset_on_switch && rec.switched) session.reset();

    const auto res = session.solve();
    if (res.status == dopf::core::AdmmStatus::kCancelled) {
      // The half-solved step is discarded: recorded steps must stay a
      // byte-identical prefix of the uninterrupted run, and the durable
      // checkpoint must describe a completed step.
      finish_cancelled();
      break;
    }
    rec.status = res.status;
    rec.converged = res.converged;
    rec.warm_started = res.warm_started;
    rec.iterations = res.iterations;
    rec.watchdog_stalls = res.watchdog.stalls;
    rec.objective = res.objective;
    rec.primal_residual = res.primal_residual;
    rec.dual_residual = res.dual_residual;
    rec.model_fp = binding.model_fingerprint();
    rec.scenario_fp = binding.scenario_fingerprint();
    result.all_converged = result.all_converged && res.converged;
    if (res.warm_started) result.warm_iterations += res.iterations;

    if (options_.cold_compare) {
      // Throwaway session on the SAME binding: identical pack and
      // factorizations, fresh iterate state — the cold baseline a warm
      // step is measured against.
      dopf::core::SolveSession cold(binding, options_.admm);
      if (options_.make_backend) cold.set_backend(options_.make_backend());
      const auto cold_res = cold.solve();
      if (cold_res.status == dopf::core::AdmmStatus::kCancelled) {
        finish_cancelled();
        break;
      }
      rec.cold_iterations = cold_res.iterations;
      result.cold_iterations += rec.cold_iterations;
    }

    if (durable_checkpoints) {
      last_good = dopf::runtime::AdmmCheckpoint::capture(session.solver(), k,
                                                         profile_->name);
      have_last_good = true;
      if (k == options_.checkpoint_at_step) {
        // Single-file layout at the exact requested path (the historical
        // contract), atomically replaced.
        result.io += dopf::runtime::save_checkpoint(
            last_good, options_.checkpoint_path, options_.durable);
      }
      if (options_.checkpoint_every_steps > 0 &&
          (k + 1 - result.first_step) % options_.checkpoint_every_steps == 0) {
        result.io += store.save(last_good);
      }
    }
    result.steps.push_back(rec);
  }

  result.session = session.stats();
  result.refactorizations = model.refactorizations();
  return result;
}

std::string record_line(const StreamStepRecord& rec) {
  std::string line = "step " + std::to_string(rec.step);
  line += " status ";
  line += dopf::core::to_string(rec.status);
  line += " converged " + std::to_string(rec.converged ? 1 : 0);
  line += " warm " + std::to_string(rec.warm_started ? 1 : 0);
  line += " switched " + std::to_string(rec.switched ? 1 : 0);
  line += " iterations " + std::to_string(rec.iterations);
  line += " cold_iterations " + std::to_string(rec.cold_iterations);
  line += " refactorizations " + std::to_string(rec.rebind.refactorizations);
  line += " rhs_rebinds " + std::to_string(rec.rebind.rhs_rebinds);
  line += " unchanged " + std::to_string(rec.rebind.unchanged);
  line += " preflight_reused ";
  line += rec.preflight_ran ? std::to_string(rec.preflight_reused) : "-";
  line += " watchdog_stalls " + std::to_string(rec.watchdog_stalls);
  line += " objective " + dopf::verify::hex_double(rec.objective);
  line += " primal " + dopf::verify::hex_double(rec.primal_residual);
  line += " dual " + dopf::verify::hex_double(rec.dual_residual);
  line += " model_fp " + hex_u64(rec.model_fp);
  line += " scenario_fp " + hex_u64(rec.scenario_fp);
  return line;
}

void write_records(const StreamResult& result, const StreamProfile& profile,
                   std::ostream& out) {
  std::ostringstream body;
  body << "stream " << profile.name << " steps " << profile.num_steps
       << " first_step " << result.first_step << " dt "
       << dopf::verify::hex_double(profile.dt_seconds) << '\n';
  for (const StreamStepRecord& rec : result.steps) {
    body << record_line(rec) << '\n';
  }
  const auto& st = result.session;
  body << "session solves " << st.solves << " cold " << st.cold_solves
       << " warm " << st.warm_solves << " precompute_reuses "
       << st.precompute_reuses << " refactorizations " << st.refactorizations
       << " rhs_rebinds " << st.rhs_rebinds << " model_refactorizations "
       << result.refactorizations << " converged "
       << (result.all_converged ? 1 : 0) << '\n';
  // Trailing CRC over every byte above, so a truncated or bit-rotted
  // record file is detected at read time (mirrors the checkpoint format).
  const std::string text = body.str();
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "record_crc %08" PRIx32,
                dopf::verify::crc32(text));
  out << text << crc_line << '\n';
}

ReplayRecordFile read_records(std::istream& in) {
  std::ostringstream slurp;
  slurp << in.rdbuf();
  const std::string text = slurp.str();

  const auto crc_pos = text.rfind("\nrecord_crc ");
  if (crc_pos == std::string::npos) {
    throw StreamRecordError("missing record_crc line (truncated file?)");
  }
  const std::string body = text.substr(0, crc_pos + 1);
  std::uint32_t stored = 0;
  if (std::sscanf(text.c_str() + crc_pos + 1, "record_crc %8" SCNx32,
                  &stored) != 1) {
    throw StreamRecordError("malformed record_crc line");
  }
  const std::uint32_t actual = dopf::verify::crc32(body);
  if (stored != actual) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "CRC mismatch (stored %08" PRIx32 ", payload %08" PRIx32
                  ") — file corrupted or truncated",
                  stored, actual);
    throw StreamRecordError(msg);
  }

  ReplayRecordFile file;
  std::istringstream lines(body);
  std::string line;
  if (!std::getline(lines, line)) {
    throw StreamRecordError("empty record file");
  }
  {
    std::istringstream header(line);
    std::string tag, steps_key, first_key, dt_key, dt_value;
    if (!(header >> tag >> file.profile >> steps_key >> file.num_steps >>
          first_key >> file.first_step >> dt_key >> dt_value) ||
        tag != "stream" || steps_key != "steps" ||
        first_key != "first_step" || dt_key != "dt") {
      throw StreamRecordError("malformed header line '" + line + "'");
    }
  }
  bool saw_session = false;
  while (std::getline(lines, line)) {
    if (line.rfind("step ", 0) == 0) {
      if (saw_session) {
        throw StreamRecordError("step line after session footer");
      }
      file.step_lines.push_back(line);
    } else if (line.rfind("session ", 0) == 0) {
      if (saw_session) throw StreamRecordError("duplicate session footer");
      saw_session = true;
      file.session_line = line;
    } else {
      throw StreamRecordError("unrecognized line '" + line + "'");
    }
  }
  if (!saw_session) {
    throw StreamRecordError("missing session footer (truncated file?)");
  }
  return file;
}

}  // namespace dopf::stream
