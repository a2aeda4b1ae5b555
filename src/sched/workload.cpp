#include "sched/workload.hpp"

#include <fstream>
#include <istream>
#include <iterator>
#include <set>
#include <stdexcept>

#include "sched/dag.hpp"
#include "sim/random.hpp"
#include "util/fmt.hpp"
#include "util/parse.hpp"

namespace epi::sched {

namespace {

// Workgroup shapes a serving job may request, with draw weights biased
// toward small groups (the realistic mix: many small tenants, occasional
// large jobs that exercise head-of-line blocking and fragmentation).
struct ShapeChoice {
  unsigned rows, cols, weight;
};
constexpr ShapeChoice kShapes[] = {
    {1, 1, 4}, {1, 2, 3}, {2, 2, 4}, {2, 4, 3},
    {4, 4, 3}, {2, 8, 1}, {4, 8, 1}, {8, 8, 1},
};

unsigned weighted_draw(sim::Rng& rng, const unsigned* weights, unsigned n) {
  unsigned total = 0;
  for (unsigned i = 0; i < n; ++i) total += weights[i];
  std::uint64_t r = rng.next_below(total);
  for (unsigned i = 0; i < n; ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return n - 1;
}

}  // namespace

std::vector<JobSpec> generate(const TrafficConfig& cfg) {
  if (cfg.tenants.empty()) {
    throw std::invalid_argument("TrafficConfig::tenants must not be empty");
  }
  sim::Rng rng(cfg.seed);
  // Drawable kinds (Custom is submit-only: it carries inline programs).
  constexpr JobKind kKinds[] = {JobKind::Matmul, JobKind::Stencil,
                                JobKind::Offload, JobKind::CannonMatmul,
                                JobKind::Transpose};
  const unsigned kind_weights[std::size(kKinds)] = {
      cfg.matmul_weight, cfg.stencil_weight, cfg.offload_weight,
      cfg.cannon_weight, cfg.transpose_weight};
  unsigned shape_weights[std::size(kShapes)];
  for (unsigned i = 0; i < std::size(kShapes); ++i) shape_weights[i] = kShapes[i].weight;

  std::vector<JobSpec> jobs;
  jobs.reserve(cfg.jobs);
  sim::Cycles t = 0;
  std::uint32_t next_graph = 1;
  while (jobs.size() < cfg.jobs) {
    // Pipeline requests ride the same budget: each graph emits one JobSpec
    // per stage. Every draw below is guarded by pipeline_frac > 0 so a
    // frac-0 config replays the pre-pipeline rng stream byte-identically.
    const unsigned remaining = cfg.jobs - static_cast<unsigned>(jobs.size());
    if (cfg.pipeline_frac > 0 && remaining >= 2 &&
        rng.next_float() < cfg.pipeline_frac) {
      JobGraph g = draw_pipeline(rng, remaining >= 3 ? 3 : 2);
      g.id = next_graph++;
      g.tenant = cfg.tenants[rng.next_below(cfg.tenants.size())];
      g.priority = static_cast<unsigned>(rng.next_below(4));
      if (cfg.mean_interarrival > 0 && !jobs.empty()) {
        t += cfg.mean_interarrival / 2 + rng.next_below(cfg.mean_interarrival);
      }
      g.arrival = t;
      if (rng.next_float() < cfg.deadline_prob) {
        // Whole-chain SLO: the budget scales with the stage count, since the
        // stages run back to back at best.
        g.deadline = t + 2'000'000ull * g.stages.size() + rng.next_below(2'000'000);
      }
      g.timeout = cfg.timeout;
      for (JobSpec& s : expand_graph(g, static_cast<std::uint32_t>(jobs.size()))) {
        jobs.push_back(std::move(s));
      }
      continue;
    }
    JobSpec s;
    s.id = static_cast<std::uint32_t>(jobs.size());
    s.tenant = cfg.tenants[rng.next_below(cfg.tenants.size())];
    s.kind = kKinds[weighted_draw(rng, kind_weights, std::size(kKinds))];
    const ShapeChoice& shape =
        kShapes[weighted_draw(rng, shape_weights, std::size(kShapes))];
    s.rows = shape.rows;
    s.cols = shape.cols;
    if (s.kind == JobKind::CannonMatmul) {
      // Cannon's active torus is the min(rows, cols) square; request a square
      // group so every granted core participates in the rotation.
      s.rows = s.cols = std::min(shape.rows, shape.cols);
    }
    s.priority = static_cast<unsigned>(rng.next_below(4));
    // Geometric-flavoured gap around the mean: uniform in [mean/2, 3*mean/2)
    // keeps bursts and lulls without heavy tails that would make short
    // benches unrepresentative.
    if (cfg.mean_interarrival > 0 && !jobs.empty()) {
      t += cfg.mean_interarrival / 2 + rng.next_below(cfg.mean_interarrival);
    }
    s.arrival = t;
    s.iters = 1 + static_cast<unsigned>(rng.next_below(3));
    switch (s.kind) {
      case JobKind::Matmul: s.block = 8u << rng.next_below(3); break;   // 8/16/32
      case JobKind::Stencil: s.block = 8 + 4 * static_cast<unsigned>(rng.next_below(4)); break;
      case JobKind::Offload: s.block = 16u << rng.next_below(2); break; // 16/32
      case JobKind::CannonMatmul: s.block = 8u << rng.next_below(2); break; // 8/16
      // block^2 words per PE pair (clamped to the symmetric heap at launch)
      case JobKind::Transpose: s.block = 4u << rng.next_below(2); break;  // 4/8
      case JobKind::Custom: break;  // never drawn: kKinds excludes it
    }
    if (rng.next_float() < cfg.fail_prob) {
      s.launch_failures = 1 + static_cast<unsigned>(rng.next_below(2));
    }
    if (rng.next_float() < cfg.deadline_prob) {
      s.deadline = s.arrival + 2'000'000 + rng.next_below(2'000'000);
    }
    s.timeout = cfg.timeout;
    jobs.push_back(std::move(s));
  }
  return jobs;
}

std::string save(const std::vector<JobSpec>& jobs) {
  std::string out = "# epi-serve workload (one job per line)\n";
  for (const JobSpec& s : jobs) {
    out += util::format(
        "job id=%u tenant=%s kind=%s rows=%u cols=%u prio=%u arrival=%llu "
        "deadline=%llu timeout=%llu iters=%u block=%u failures=%u",
        s.id, s.tenant.c_str(), to_string(s.kind), s.rows, s.cols, s.priority,
        static_cast<unsigned long long>(s.arrival),
        static_cast<unsigned long long>(s.deadline),
        static_cast<unsigned long long>(s.timeout), s.iters, s.block,
        s.launch_failures);
    // Cluster domain tags, omitted for single-chip jobs so single-chip
    // workload files stay byte-identical to the pre-cluster format.
    if (s.home_chip != 0 || s.origin_chip != 0) {
      out += util::format(" home=%u origin=%u", s.home_chip, s.origin_chip);
    }
    // Pipeline tags, omitted for standalone jobs for the same reason.
    if (s.graph != 0) {
      out += util::format(" graph=%u stage=%u stages=%u", s.graph, s.stage,
                          s.graph_stages);
      if (!s.deps.empty()) {
        out += " deps=";
        for (std::size_t i = 0; i < s.deps.size(); ++i) {
          out += util::format(i == 0 ? "%u:%u" : ",%u:%u", s.deps[i].first,
                              s.deps[i].second);
        }
      }
    }
    out += "\n";
  }
  return out;
}

std::vector<JobSpec> load(std::istream& in, const std::string& source) {
  std::vector<JobSpec> jobs;
  std::vector<unsigned> line_of;  // source line of each job
  util::for_each_line(in, source, [&](const util::Line& line) {
    if (line.directive() != "job") {
      throw line.error("expected 'job', got '" + std::string(line.directive()) + "'");
    }
    line.fields({}, "id tenant kind rows cols prio arrival deadline timeout iters "
                    "block failures home origin graph stage stages deps");
    JobSpec s;
    line.number("id", s.id);
    if (const auto v = line.find("tenant")) s.tenant = std::string(*v);
    if (const auto v = line.find("kind")) {
      if (!parse_kind(*v, s.kind)) throw line.error("unknown kind '" + std::string(*v) + "'");
      if (s.kind == JobKind::Custom) {
        throw line.error(
            "custom jobs carry inline programs and cannot be expressed in "
            "a workload file; submit them via Scheduler::submit or "
            "epi_serve --asm");
      }
    }
    line.number("rows", s.rows);
    line.number("cols", s.cols);
    line.number("prio", s.priority);
    line.number("arrival", s.arrival);
    line.number("deadline", s.deadline);
    line.number("timeout", s.timeout);
    line.number("iters", s.iters);
    line.number("block", s.block);
    line.number("failures", s.launch_failures);
    line.number("home", s.home_chip);
    line.number("origin", s.origin_chip);
    line.number("graph", s.graph);
    line.number("stage", s.stage);
    line.number("stages", s.graph_stages);
    if (const auto v = line.find("deps")) {
      // id:bytes pairs, comma-separated: deps=12:2048,13:4096
      std::string_view rest = *v;
      for (bool more = true; more;) {
        const auto comma = rest.find(',');
        more = comma != std::string_view::npos;
        const std::string_view pair = rest.substr(0, comma);
        auto& dep = s.deps.emplace_back();
        if (!util::parse_pair(pair, ':', dep.first, dep.second)) {
          throw line.error("dep '" + std::string(pair) + "' is not id:bytes");
        }
        if (more) rest.remove_prefix(comma + 1);
      }
    }
    if (s.rows == 0 || s.cols == 0) throw line.error("job shape must be at least 1x1");
    if (s.graph != 0 && (s.graph_stages == 0 || s.stage >= s.graph_stages)) {
      throw line.error("graph job needs stage < stages (got stage=" +
                       std::to_string(s.stage) + " stages=" +
                       std::to_string(s.graph_stages) + ")");
    }
    if (s.graph == 0 && !s.deps.empty()) {
      throw line.error("deps require a nonzero graph id");
    }
    jobs.push_back(std::move(s));
    line_of.push_back(line.number());
  });
  // A dep on a job the file does not hold would stall the scheduler forever.
  std::set<std::pair<std::uint32_t, std::uint32_t>> graph_jobs;  // (graph, id)
  for (const JobSpec& s : jobs) graph_jobs.emplace(s.graph, s.id);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (const auto& dep : jobs[i].deps) {
      if (!graph_jobs.contains({jobs[i].graph, dep.first})) {
        throw util::error_at(source, line_of[i],
                             "dep " + std::to_string(dep.first) + " names no job of graph " +
                                 std::to_string(jobs[i].graph));
      }
    }
  }
  return jobs;
}

std::vector<JobSpec> load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open workload spec: " + path);
  return load(in, path);
}

}  // namespace epi::sched
