// The repository's benchmark: three seeded closed-loop workloads
// against the real deployments, checked against the plaintext oracle.
//
//   zr_perfbench --workload <zr_read|zr_write|cluster4> --seed <n>
//                --seconds <s> --trace <0|1> --shard-server <path>
//
// --trace 0 measures the end-to-end metrics with no tracing at all.
// --trace 1 runs half the window untraced and half traced, and reports the
// per-layer metrics: self time per layer from the benchmark's own spans,
// plus the program's own telemetry (obs stage spans, registry histograms,
// ServerStats, TcpServerStats, RouterStats) read through public functions.
// The spans are written to .bench_run/spans-<workload>.tsv.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every line before it is a human-readable account of the run.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/process.h"
#include "cluster/router.h"
#include "core/pipeline.h"
#include "core/zerber_r_client.h"
#include "crypto/aes.h"
#include "load/op_generator.h"
#include "measure.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tracing.h"
#include "zerber/posting_element.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using zr::Status;
using zr::StatusOr;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kInMemory, kDurableTcp, kCluster };

struct Workload {
  const char* name;
  Kind kind;
  size_t clients;
  std::array<double, zr::load::kNumOpClasses> mix;  // indexed by OpClass
};

// All three: tiny preset, k = 10, b = 10, Zipf s = 0.9, 2.4 terms per
// Zerber+R query, closed loop. Why each exists is recorded in
// BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"zr_read", Kind::kInMemory, 2, {1.0, 0.0, 0.0, 0.0}},
    {"zr_write", Kind::kDurableTcp, 2, {0.40, 0.0, 0.35, 0.25}},
    {"cluster4", Kind::kCluster, 2, {0.40, 0.0, 0.35, 0.25}},
};

constexpr size_t kTopK = 10;
constexpr size_t kInitialResponse = 10;
constexpr double kTermsPerQuery = 2.4;
constexpr size_t kUsers = 8;
constexpr size_t kGroupsPerUser = 2;
constexpr zr::zerber::UserId kUserBase = 100000;
constexpr size_t kClusterShards = 4;
constexpr size_t kTcpLoops = 2;
constexpr size_t kDurableShards = 4;

/// The WAL policy of both durable workloads: every mutation is written to
/// the WAL file on disk before it is acked, with no fsync. With fsync (group
/// commit) the write metrics followed the shared virtual disk, not the
/// program: over 10 seeds of 30 s runs insert_p50_us on zr_write spread
/// 0.43 of its median and ops_per_s 0.38, and the slow runs were also the
/// ones whose set-up (which loads the corpus through the WAL) took 2.7-3.6 s
/// instead of 1.3 s.
constexpr zr::store::WalSyncMode kWalSync = zr::store::WalSyncMode::kNone;

/// Deployments built per untraced run; setup_s is their median.
constexpr size_t kSetups = 3;
/// Unmeasured ops per client before the window (connection and cache
/// warm-up; also fills delete pools).
constexpr size_t kWarmupInserts = 32;
constexpr size_t kWarmupOps = 200;
/// zr_read sends no writes in its window. It reports insert and delete
/// latency from a write probe: kProbeRounds rounds per client of
/// kProbeRoundWrites inserts, each round followed by a delete of every
/// element it inserted. The untraced run cuts its window into kProbeSlices
/// query-only slices with a share of the rounds after each, so the probe
/// sees the host over the whole run, as the queries do, not during one
/// burst. A fixed count, not a time, keeps the probe's sample memory (and
/// so peak_rss_mb) the same in every run.
constexpr size_t kProbeRounds = 100;
constexpr size_t kProbeRoundWrites = 2000;
constexpr size_t kProbeSlices = 10;
/// Terms checked against the oracle before and after the window.
constexpr size_t kGatePopular = 64;
constexpr size_t kGateSampled = 32;
/// In traced runs, every this-many-th query of a client re-opens the
/// elements it fetched, and every this-many-th insert re-seals its payload,
/// timed on the client thread right after the op (outside its latency and
/// its spans): crypto time measured where and when the window ran.
constexpr uint64_t kCryptoSampleEvery = 16;

/// The traced run fails when the layer self times and the mean query time
/// differ by more than this share.
constexpr double kMaxSelfResidual = 0.02;

/// Synthetic doc ids of the run's own inserts: a private range per client
/// far above any corpus document.
constexpr uint32_t kDocBase = 0x40000000u;
constexpr uint32_t kDocStride = 1u << 22;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// A harness error (bad flags, a deployment that cannot start): the run
/// prints no result. Thrown, so unwinding stops every shard process.
struct Error {
  std::string message;
};

/// A failed correctness check: the run reports correct = false and no
/// metrics.
struct CheckFailure {
  std::string message;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

[[noreturn]] void Die(const std::string& message) { throw Error{message}; }

[[noreturn]] void Fail(const std::string& what, uint64_t attempted,
                       uint64_t failed) {
  throw CheckFailure{what, attempted, failed};
}

uint64_t NowNs() { return zr::obs::MonotonicNowNs(); }

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// user+sys CPU seconds of another process, from /proc/<pid>/stat.
double ChildCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command: state is field 3; utime/stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak RSS of another process in MB (VmHWM).
double ChildPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

// ---------------------------------------------------------------------------
// Host fingerprint and calibration probe
// ---------------------------------------------------------------------------

bool OptimisedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

/// Median nanoseconds per AES block over five chains of 64k blocks under a
/// fixed key: a machine-speed reference printed next to every result.
double CryptoProbeNsPerBlock() {
  auto aes = zr::crypto::Aes::Create(std::string(16, '\x2a'));
  if (!aes.ok()) Die("calibration: " + aes.status().ToString());
  zr::crypto::AesBlock block{};
  constexpr int kBlocks = 1 << 16;
  std::vector<double> per_block;
  for (int round = 0; round < 5; ++round) {
    uint64_t start = NowNs();
    for (int i = 0; i < kBlocks; ++i) aes->EncryptBlock(&block);
    per_block.push_back(static_cast<double>(NowNs() - start) / kBlocks);
  }
  volatile uint8_t sink = block[0];  // the chain's result stays live
  (void)sink;
  return Median(per_block);
}

void PrintHost(const std::string& data_dir) {
  std::string model = "unknown", flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
    }
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = line + " ";
  }
  auto has = [&](const char* f) {
    return flags.find(std::string(" ") + f + " ") != std::string::npos ? "yes"
                                                                       : "no";
  };
  std::printf("host: cpu=\"%s\" nproc=%ld aes=%s sha_ni=%s pclmulqdq=%s\n",
              model.c_str(), sysconf(_SC_NPROCESSORS_ONLN), has("aes"),
              has("sha_ni"), has("pclmulqdq"));
  std::printf("build: compiler=\"%s\" optimised=%s\n", __VERSION__,
              OptimisedBuild() ? "yes" : "no");
  std::printf("data dir: %s on %s\n", data_dir.c_str(),
              FilesystemOf(data_dir).c_str());
  std::printf("calibration: aes block %.2f ns\n", CryptoProbeNsPerBlock());
}

// ---------------------------------------------------------------------------
// Deployment and clients
// ---------------------------------------------------------------------------

/// What one client recorded; merged across clients after each phase.
struct Tally {
  std::vector<double> query_ns, insert_ns, delete_ns;
  uint64_t attempted = 0, failed = 0;
  uint64_t queries = 0, query_bytes = 0, query_exchanges = 0;
  uint64_t elements = 0, hits = 0;

  void Merge(const Tally& o) {
    query_ns.insert(query_ns.end(), o.query_ns.begin(), o.query_ns.end());
    insert_ns.insert(insert_ns.end(), o.insert_ns.begin(), o.insert_ns.end());
    delete_ns.insert(delete_ns.end(), o.delete_ns.begin(), o.delete_ns.end());
    attempted += o.attempted;
    failed += o.failed;
    queries += o.queries;
    query_bytes += o.query_bytes;
    query_exchanges += o.query_exchanges;
    elements += o.elements;
    hits += o.hits;
  }
  uint64_t ops() const {
    return query_ns.size() + insert_ns.size() + delete_ns.size() - failed;
  }
};

struct Client {
  struct Owned {
    zr::zerber::UserId user = 0;
    zr::zerber::MergedListId list = 0;
    uint64_t handle = 0;
  };

  Client(const zr::load::LoadSpec& spec, size_t i, uint64_t num_terms)
      : index(i), generator(spec, i, num_terms) {}

  size_t index;
  zr::load::OpGenerator generator;
  std::unique_ptr<zr::net::Transport> transport;
  std::unique_ptr<TimedExchange> seam;  // traced runs only
  zr::net::ZerberService* service = nullptr;  // seam, else the transport
  std::vector<std::unique_ptr<zr::core::ZerberRClient>> zr_clients;
  std::vector<Owned> pool;
  uint32_t next_doc_seq = 0;
  Tally tally;

  // Crypto samples (traced window and zr_read's probe after it).
  uint64_t queries_seen = 0, inserts_seen = 0;
  uint64_t open_ns = 0, opened = 0, seal_ns = 0, sealed = 0;
};

struct TermEntry {
  zr::text::TermId term = 0;
  std::string term_string;
  zr::zerber::MergedListId list = 0;
};

/// One built deployment of a workload. Members are declared so that they
/// are destroyed clients first, then the TCP server, the decorator, the
/// pipeline (router, durable backend) and last the shard processes.
struct Deployment {
  const Workload* workload = nullptr;
  std::vector<std::unique_ptr<zr::cluster::ShardProcess>> shards;
  std::unique_ptr<zr::core::Pipeline> pipeline;
  std::unique_ptr<TimedBackend> timed;
  std::unique_ptr<zr::net::TcpServer> tcp;
  zr::net::ZerberService* entry = nullptr;  // what client transports reach
  std::string backend_layer;  // the layer the backend decorator times
  zr::net::TransportKind transport_kind = zr::net::TransportKind::kDirect;
  std::string connect_addr;
  std::function<zr::zerber::ServerStats()> server_stats;
  /// Set (between phases) while clients take crypto samples.
  bool sample_crypto = false;

  std::vector<TermEntry> terms;
  std::vector<zr::zerber::UserId> users;
  std::vector<std::vector<zr::crypto::GroupId>> user_groups;
  std::vector<std::unique_ptr<Client>> clients;
};

/// The fields of a LoadSpec that load::OpGenerator reads.
zr::load::LoadSpec SpecOf(const Workload& w, uint64_t seed) {
  zr::load::LoadSpec spec;
  spec.seed = seed;
  spec.mix = w.mix;
  spec.zipf_s = 0.9;
  spec.terms_per_query_mean = kTermsPerQuery;
  spec.num_users = kUsers;
  spec.groups_per_user = kGroupsPerUser;
  return spec;
}

void BuildTermTable(Deployment* d) {
  const zr::text::Corpus& corpus = d->pipeline->corpus;
  const zr::text::Vocabulary& vocab = corpus.vocabulary();
  std::vector<zr::text::TermId> ids;
  for (zr::text::TermId t : vocab.AllTermIds()) {
    if (corpus.DocumentFrequency(t) > 0) ids.push_back(t);
  }
  // Zipf rank 1 is the most frequent term (ties by id): the load
  // subsystem's term order.
  std::sort(ids.begin(), ids.end(),
            [&](zr::text::TermId a, zr::text::TermId b) {
              uint64_t da = corpus.DocumentFrequency(a);
              uint64_t db = corpus.DocumentFrequency(b);
              return da != db ? da > db : a < b;
            });
  for (zr::text::TermId t : ids) {
    TermEntry e;
    e.term = t;
    e.term_string = vocab.TermOf(t).value();
    e.list = d->pipeline->plan.ListOf(
        t, d->pipeline->keys->TermPseudonym(e.term_string));
    d->terms.push_back(std::move(e));
  }
}

/// Pipeline options every workload shares.
zr::core::PipelineOptions BaseOptions() {
  zr::core::PipelineOptions options;
  options.preset = zr::synth::TinyPreset();
  // Sigma by cross-validation, the pipeline's default. A small fixed sigma
  // (loadgen's 0.002) leaves TRS plateaus on which Zerber+R answers differ
  // from the oracle, and the gate would refuse every run.
  options.sigma = 0.0;
  options.seed = 20090324;
  options.protocol.initial_response_size = kInitialResponse;
  options.build_baseline_index = true;
  options.build_query_log = false;
  return options;
}

void FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir + ": " + ec.message());
}

Status ExecuteOp(Deployment* d, Client* c, const zr::load::Op& op,
                 Tally* tally);

std::unique_ptr<Deployment> Setup(const Workload& w, uint64_t seed, bool trace,
                                  const std::string& data_root,
                                  const std::string& shard_server) {
  auto d = std::make_unique<Deployment>();
  d->workload = &w;
  FreshDir(data_root);

  zr::core::PipelineOptions options = BaseOptions();
  std::string& backend_layer = d->backend_layer;
  switch (w.kind) {
    case Kind::kInMemory:
      backend_layer = "zerber";
      break;
    case Kind::kDurableTcp:
      // The WAL on a fresh on-disk directory (kWalSync).
      options.num_shards = kDurableShards;
      options.data_dir = data_root;
      options.wal_sync_mode = kWalSync;
      backend_layer = "store";
      break;
    case Kind::kCluster:
      // The shard servers start once the merge plan exists: their --lists
      // flag needs it.
      options.shard_launcher = [&](size_t num_lists, uint64_t backend_seed)
          -> StatusOr<std::vector<std::string>> {
        std::vector<std::string> addrs;
        for (size_t s = 0; s < kClusterShards; ++s) {
          std::vector<std::string> args = {
              "--shard=" + std::to_string(s),
              "--shards=" + std::to_string(kClusterShards),
              "--lists=" + std::to_string(num_lists),
              "--seed=" + std::to_string(backend_seed),
              "--data-dir=" + data_root + "/s" + std::to_string(s),
              std::string("--sync=") + zr::store::WalSyncModeName(kWalSync),
              "--listen=127.0.0.1:0",
          };
          ZR_ASSIGN_OR_RETURN(
              auto proc, zr::cluster::ShardProcess::Start(shard_server, args));
          addrs.push_back(proc->addr());
          d->shards.push_back(std::move(proc));
        }
        return addrs;
      };
      backend_layer = "cluster";
      break;
  }
  auto built = zr::core::BuildPipeline(options);
  if (!built.ok()) Die("pipeline build failed: " + built.status().ToString());
  d->pipeline = std::move(built).value();
  zr::core::Pipeline* p = d->pipeline.get();

  zr::net::ZerberService* backend = nullptr;
  std::function<Status(zr::zerber::UserId, zr::crypto::GroupId)> grant;
  if (p->router) {
    zr::cluster::RouterService* router = p->router.get();
    backend = router;
    grant = [router](zr::zerber::UserId u, zr::crypto::GroupId g) {
      return router->GrantMembership(u, g);
    };
    d->server_stats = [router] { return router->stats(); };
  } else if (p->durable) {
    zr::store::DurableIndexService* durable = p->durable.get();
    backend = durable;
    grant = [durable](zr::zerber::UserId u, zr::crypto::GroupId g) {
      return durable->GrantMembership(u, g);
    };
    d->server_stats = [durable] { return durable->sharded()->stats(); };
  } else {
    zr::zerber::IndexServer* server = p->server.get();
    backend = p->service.get();
    grant = [server](zr::zerber::UserId u, zr::crypto::GroupId g) {
      // Setup runs before any client traffic: the index is quiescent.
      zr::QuiescenceLock quiesced(server->quiescence());
      return server->acl().GrantMembership(u, g);
    };
    d->server_stats = [server] { return server->stats(); };
  }
  d->entry = backend;
  if (trace) {
    d->timed = std::make_unique<TimedBackend>(backend, backend_layer);
    d->entry = d->timed.get();
  }
  if (w.kind == Kind::kDurableTcp) {
    // Hand-off deals connections to the loops round-robin, so every run
    // places its clients the same way; SO_REUSEPORT placement is a hash of
    // the source port, and a run that put both clients on one loop would
    // measure that, not the program.
    auto server = zr::net::TcpServer::Start(
        d->entry, zr::net::ServerConfig::Local()
                      .WithLoops(kTcpLoops)
                      .WithAcceptMode(zr::net::AcceptMode::kHandOff));
    if (!server.ok()) Die("tcp server: " + server.status().ToString());
    d->tcp = std::move(server).value();
    d->transport_kind = zr::net::TransportKind::kTcp;
    d->connect_addr = d->tcp->address();
  }

  BuildTermTable(d.get());

  // Load users in overlapping group subsets, as the load subsystem makes
  // them: ACL filtering is on every path.
  std::set<zr::crypto::GroupId> group_set;
  for (const auto& doc : p->corpus.documents()) group_set.insert(doc.group());
  std::vector<zr::crypto::GroupId> groups(group_set.begin(), group_set.end());
  for (size_t i = 0; i < kUsers; ++i) {
    zr::zerber::UserId user = kUserBase + static_cast<zr::zerber::UserId>(i);
    std::vector<zr::crypto::GroupId> member_of;
    for (size_t j = 0; j < std::min(kGroupsPerUser, groups.size()); ++j) {
      member_of.push_back(groups[(i + j) % groups.size()]);
      Status granted = grant(user, member_of.back());
      if (!granted.ok()) Die("grant: " + granted.ToString());
    }
    d->users.push_back(user);
    d->user_groups.push_back(std::move(member_of));
  }

  zr::load::LoadSpec spec = SpecOf(w, seed);
  zr::core::ProtocolOptions protocol;
  protocol.initial_response_size = kInitialResponse;
  for (size_t i = 0; i < w.clients; ++i) {
    auto c = std::make_unique<Client>(spec, i, d->terms.size());
    c->transport = zr::net::MakeTransport(d->transport_kind, d->entry, nullptr,
                                          d->connect_addr);
    c->service = c->transport.get();
    if (trace) {
      c->seam = std::make_unique<TimedExchange>(c->transport.get());
      c->service = c->seam.get();
    }
    for (zr::zerber::UserId user : d->users) {
      c->zr_clients.push_back(std::make_unique<zr::core::ZerberRClient>(
          user, p->keys.get(), &p->plan, c->service, &p->corpus.vocabulary(),
          p->assigner.get(), protocol));
    }
    d->clients.push_back(std::move(c));
  }

  return d;
}

/// Warm-up, the last part of set-up: connections, caches, delete pools.
void WarmUp(Deployment* d) {
  const Workload& w = *d->workload;
  std::vector<std::thread> threads;
  std::vector<Status> warm(w.clients);
  for (size_t i = 0; i < w.clients; ++i) {
    threads.emplace_back([&, i] {
      Client* c = d->clients[i].get();
      if (w.mix[static_cast<size_t>(zr::load::OpClass::kInsert)] > 0) {
        for (size_t n = 0; n < kWarmupInserts && warm[i].ok(); ++n) {
          warm[i] = ExecuteOp(d, c, c->generator.NextWarmupInsert(), nullptr);
        }
      }
      for (size_t n = 0; n < kWarmupOps && warm[i].ok(); ++n) {
        warm[i] = ExecuteOp(d, c, c->generator.Next(), nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : warm) {
    if (!s.ok()) Die("warm-up op failed: " + s.ToString());
  }
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

/// Executes one op; records latency and accounting into `tally` (null for
/// unmeasured warm-up ops). The returned status is the op's outcome.
Status ExecuteOp(Deployment* d, Client* c, const zr::load::Op& op,
                 Tally* tally) {
  using zr::load::OpClass;
  zr::core::Pipeline* p = d->pipeline.get();
  if (op.cls == OpClass::kDelete && c->pool.empty()) return Status::OK();

  const zr::net::TransportStats before = c->transport->stats();
  const uint64_t start = NowNs();
  Status status = Status::OK();
  uint64_t elements = 0, hits = 0;
  bool sample_open = false, sample_seal = false;
  zr::zerber::PostingPayload payload;
  zr::crypto::GroupId seal_group = 0;
  double seal_trs = 0.0;
  switch (op.cls) {
    case OpClass::kQueryZerberR:
    case OpClass::kQueryZerber: {
      ScopedSpan span("core.query");
      std::vector<zr::text::TermId> terms = {d->terms[op.term_rank - 1].term};
      for (uint64_t rank : op.extra_term_ranks) {
        terms.push_back(d->terms[rank - 1].term);
      }
      zr::core::ZerberRClient* client = c->zr_clients[op.user_index].get();
      sample_open = d->sample_crypto &&
                    ++c->queries_seen % kCryptoSampleEvery == 0;
      if (sample_open) c->seam->set_capture(true);
      auto result = terms.size() == 1 ? client->QueryTopK(terms[0], kTopK)
                                      : client->QueryTopKMulti(terms, kTopK);
      if (result.ok()) {
        elements = result->trace.elements_fetched;
        hits = result->trace.hits;
      } else {
        status = result.status();
      }
      break;
    }
    case OpClass::kInsert: {
      ScopedSpan span("core.insert");
      const TermEntry& t = d->terms[op.term_rank - 1];
      zr::zerber::UserId user = d->users[op.user_index];
      const auto& member_of = d->user_groups[op.user_index];
      zr::crypto::GroupId group = member_of[op.group_slot % member_of.size()];
      uint32_t doc = kDocBase + static_cast<uint32_t>(c->index) * kDocStride +
                     c->next_doc_seq++;
      double trs = p->assigner->Assign(t.term, t.term_string, doc, op.score);
      payload = {t.term, doc, op.score};
      seal_group = group;
      seal_trs = trs;
      sample_seal = d->sample_crypto &&
                    ++c->inserts_seen % kCryptoSampleEvery == 0;
      auto element =
          zr::zerber::SealPostingElement(payload, group, trs, p->keys.get());
      if (!element.ok()) {
        status = element.status();
        break;
      }
      zr::net::InsertRequest request;
      request.user = user;
      request.list = t.list;
      request.element = std::move(element).value();
      auto response = c->service->Insert(request);
      if (response.ok()) {
        c->pool.push_back({user, t.list, response->handle});
      } else {
        status = response.status();
      }
      break;
    }
    case OpClass::kDelete: {
      ScopedSpan span("core.delete");
      size_t idx = static_cast<size_t>(op.pool_draw % c->pool.size());
      Client::Owned entry = c->pool[idx];
      c->pool[idx] = c->pool.back();
      c->pool.pop_back();
      zr::net::DeleteRequest request;
      request.user = entry.user;
      request.list = entry.list;
      request.handle = entry.handle;
      status = c->service->Delete(request).status();
      break;
    }
  }
  const double elapsed = static_cast<double>(NowNs() - start);
  if (sample_open) {
    c->seam->set_capture(false);
    std::vector<zr::zerber::EncryptedPostingElement> fetched =
        c->seam->TakeCaptured();
    const uint64_t t0 = NowNs();
    for (const auto& element : fetched) {
      if (!zr::zerber::OpenPostingElement(element, *p->keys).ok()) {
        status = Status::Internal("a fetched element failed to open");
      }
    }
    c->open_ns += NowNs() - t0;
    c->opened += fetched.size();
  }
  if (sample_seal && status.ok()) {
    const uint64_t t0 = NowNs();
    status = zr::zerber::SealPostingElement(payload, seal_group, seal_trs,
                                            p->keys.get())
                 .status();
    c->seal_ns += NowNs() - t0;
    ++c->sealed;
  }
  if (tally == nullptr) return status;

  ++tally->attempted;
  if (!status.ok()) ++tally->failed;
  switch (op.cls) {
    case OpClass::kQueryZerberR:
    case OpClass::kQueryZerber: {
      tally->query_ns.push_back(elapsed);
      if (!status.ok()) break;
      const zr::net::TransportStats& after = c->transport->stats();
      ++tally->queries;
      tally->query_bytes += after.bytes_down - before.bytes_down;
      tally->query_exchanges += after.exchanges - before.exchanges;
      tally->elements += elements;
      tally->hits += hits;
      break;
    }
    case OpClass::kInsert:
      tally->insert_ns.push_back(elapsed);
      break;
    case OpClass::kDelete:
      tally->delete_ns.push_back(elapsed);
      break;
  }
  return status;
}

/// Runs every client's op stream for `seconds` (closed loop). Returns the
/// merged tally; wall time in *wall_ns.
Tally RunWindow(Deployment* d, double seconds, uint64_t* wall_ns) {
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (auto& client : d->clients) {
    Client* c = client.get();
    c->tally = Tally();
    threads.emplace_back([d, c, deadline] {
      while (NowNs() < deadline) {
        ExecuteOp(d, c, c->generator.Next(), &c->tally);
      }
    });
  }
  for (auto& t : threads) t.join();
  *wall_ns = NowNs() - start;
  Tally merged;
  for (auto& c : d->clients) merged.Merge(c->tally);
  return merged;
}

/// zr_read's write probe: each client runs `rounds` rounds of
/// kProbeRoundWrites inserts, each followed by deletes of every element it
/// inserted, so the index ends as it started.
Tally RunWriteProbe(Deployment* d, size_t rounds) {
  std::vector<std::thread> threads;
  for (auto& client : d->clients) {
    Client* c = client.get();
    c->tally = Tally();
    threads.emplace_back([d, c, rounds] {
      zr::load::Op del;
      del.cls = zr::load::OpClass::kDelete;
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < kProbeRoundWrites; ++i) {
          ExecuteOp(d, c, c->generator.NextWarmupInsert(), &c->tally);
        }
        while (!c->pool.empty()) ExecuteOp(d, c, del, &c->tally);
      }
    });
  }
  for (auto& t : threads) t.join();
  Tally merged;
  for (auto& c : d->clients) merged.Merge(c->tally);
  return merged;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Single-term top-k for pipeline user 1 (member of every group) through
/// the workload's full path, against the plaintext InvertedIndex. Terms
/// whose list order is a pseudo-random TRS (untrained, df > k) have no
/// exact answer to compare and are skipped.
std::string RunGate(Deployment* d, uint64_t seed, bool exact) {
  zr::core::Pipeline* p = d->pipeline.get();
  auto transport = zr::net::MakeTransport(d->transport_kind, d->entry, nullptr,
                                          d->connect_addr);
  zr::core::ProtocolOptions protocol;
  protocol.initial_response_size = kInitialResponse;
  zr::core::ZerberRClient client(p->user, p->keys.get(), &p->plan,
                                 transport.get(), &p->corpus.vocabulary(),
                                 p->assigner.get(), protocol);
  std::vector<zr::text::TermId> eligible;
  for (const TermEntry& t : d->terms) {
    if (p->assigner->HasRstf(t.term) ||
        p->corpus.DocumentFrequency(t.term) <= kTopK) {
      eligible.push_back(t.term);
    }
  }
  std::vector<zr::text::TermId> checked(
      eligible.begin(),
      eligible.begin() + std::min(kGatePopular, eligible.size()));
  zr::Rng rng(seed ^ 0x6A7E);
  for (size_t i = 0; i < kGateSampled && eligible.size() > kGatePopular; ++i) {
    checked.push_back(eligible[kGatePopular +
                               rng.Uniform(eligible.size() - kGatePopular)]);
  }
  if (checked.empty()) return "no checkable terms";
  for (zr::text::TermId term : checked) {
    auto got = client.QueryTopK(term, kTopK);
    if (!got.ok()) return "term " + std::to_string(term) + ": " +
                          got.status().ToString();
    Match match = exact                            ? Match::kExact
                  : p->assigner->HasRstf(term) ? Match::kPrefix
                                               : Match::kMember;
    std::string diff = CheckAnswer(got->results, p->baseline->TopK(term, kTopK),
                                   kTopK, match, kDocBase);
    if (!diff.empty()) {
      return "term " + std::to_string(term) + ": " + diff;
    }
  }
  return "";
}

/// socket == payload + 4 x frames + extension bytes, per direction, summed
/// over the clients' TCP sessions; and the server read (wrote) exactly
/// what the clients wrote (read).
std::string CheckFraming(Deployment* d, const zr::net::TcpServerStats& before) {
  if (d->tcp == nullptr) return "";
  zr::net::TransportStats payload;
  zr::net::TcpSocketStats socket;
  for (auto& c : d->clients) {
    const auto* tcp = static_cast<zr::net::TcpTransport*>(c->transport.get());
    payload.bytes_up += tcp->stats().bytes_up;
    payload.bytes_down += tcp->stats().bytes_down;
    const zr::net::TcpSocketStats& s = tcp->socket_stats();
    socket.bytes_up += s.bytes_up;
    socket.bytes_down += s.bytes_down;
    socket.frames_up += s.frames_up;
    socket.frames_down += s.frames_down;
    socket.ext_bytes_up += s.ext_bytes_up;
    socket.ext_bytes_down += s.ext_bytes_down;
    socket.reconnects += s.reconnects;
  }
  const zr::net::TcpServerStats after = d->tcp->stats();
  std::printf(
      "framing: socket up %" PRIu64 " = payload %" PRIu64 " + 4 x %" PRIu64
      " frames + ext %" PRIu64 "; down %" PRIu64 " = %" PRIu64 " + 4 x %" PRIu64
      " + %" PRIu64 "; server read %" PRIu64 " wrote %" PRIu64 "\n",
      socket.bytes_up, payload.bytes_up, socket.frames_up, socket.ext_bytes_up,
      socket.bytes_down, payload.bytes_down, socket.frames_down,
      socket.ext_bytes_down, after.bytes_read - before.bytes_read,
      after.bytes_written - before.bytes_written);
  if (socket.reconnects != 0) return "client sessions reconnected";
  if (socket.bytes_up != payload.bytes_up +
                             zr::net::kFrameHeaderBytes * socket.frames_up +
                             socket.ext_bytes_up ||
      socket.bytes_down != payload.bytes_down +
                               zr::net::kFrameHeaderBytes * socket.frames_down +
                               socket.ext_bytes_down) {
    return "framing identity broken";
  }
  if (after.bytes_read - before.bytes_read != socket.bytes_up ||
      after.bytes_written - before.bytes_written != socket.bytes_down) {
    return "server and client socket byte counts differ";
  }
  if (after.protocol_errors != before.protocol_errors) {
    return "server counted protocol errors";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Us(double ns) { return ns / 1e3; }

/// Reports the median as `<prefix>_p50_us`. The p99 and the highest
/// reportable percentile are printed with the sample count but not
/// reported: across 10 seeds of 30 s runs query_p99_us spread 0.55 of its
/// median on zr_write and 0.30 on cluster4 (runs that met a host stall of
/// ~10 ms read 11 ms instead of 4.4 ms; 4-vCPU KVM Xeon), and insert p99
/// spread 0.4 on cluster4 with fsync on, more than their bound allows.
void AddLatency(const std::string& prefix, const std::vector<double>& ns,
                std::vector<Metric>* out, uint64_t attempted) {
  double highest = HighestReportablePercentile(ns.size());
  auto p50 = ExactPercentile(ns, 50.0);
  auto p99 = ExactPercentile(ns, 99.0);
  std::printf("%s: %zu samples", prefix.c_str(), ns.size());
  if (p99) std::printf(", p99 = %.1f us", Us(*p99));
  std::printf(", highest reportable percentile p%g", highest);
  if (highest > 0) {
    std::printf(" = %.1f us", Us(*ExactPercentile(ns, highest)));
  }
  std::printf("\n");
  if (!p50) Fail(prefix + ": too few samples for a median", attempted, 0);
  out->push_back({prefix + "_p50_us", Us(*p50), "us"});
}

double ShardCpuSeconds(const Deployment& d) {
  double total = 0.0;
  for (const auto& s : d.shards) total += ChildCpuSeconds(s->pid());
  return total;
}

double ShardPeakRssMb(const Deployment& d) {
  double total = 0.0;
  for (const auto& s : d.shards) total += ChildPeakRssMb(s->pid());
  return total;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

/// Every value of the series named exactly `name` in a Prometheus text
/// dump (one per label set).
std::vector<double> PromSeries(const std::string& text,
                               const std::string& name) {
  std::vector<double> values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0) continue;
    char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    values.push_back(std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr));
  }
  return values;
}

/// Index op count and summed latency, per op class.
struct IndexOps {
  uint64_t count = 0, sum_ns = 0;
};

/// The program's own counters, read before and after the traced window.
struct Telemetry {
  double frames = 0, socket_bytes = 0, protocol_errors = 0;
  std::vector<double> loop_frames;
  zr::zerber::ServerStats server;
  IndexOps fetch, insert, del;  // registry histograms (ServerStats on cluster4)
  zr::cluster::RouterStats router;
  double shard_cpu_s = 0;
  uint64_t store_bytes = 0;
};

IndexOps HistogramOps(const char* name) {
  zr::obs::Histogram* h = zr::obs::Registry::Global().GetHistogram(name);
  return {h->Count(), h->SumNs()};
}

Telemetry ReadTelemetry(Deployment* d, const std::string& data_root) {
  Telemetry t;
  if (d->tcp) {
    zr::net::TcpServerStats s = d->tcp->stats();
    t.frames = static_cast<double>(s.frames_served);
    t.socket_bytes = static_cast<double>(s.bytes_read + s.bytes_written);
    t.protocol_errors = static_cast<double>(s.protocol_errors);
    for (const auto& loop : d->tcp->per_loop_stats()) {
      t.loop_frames.push_back(static_cast<double>(loop.frames_served));
    }
  }
  t.server = d->server_stats();
  t.fetch = HistogramOps("zr_index_fetch_latency_ns");
  t.insert = HistogramOps("zr_index_insert_latency_ns");
  t.del = HistogramOps("zr_index_delete_latency_ns");
  t.shard_cpu_s = ShardCpuSeconds(*d);
  t.store_bytes = DirectoryBytes(data_root);
  if (zr::cluster::RouterService* router = d->pipeline->router.get()) {
    t.router = router->router_stats();
    // Shard processes keep their own registries and TCP servers: read
    // ServerStats for the index, and each shard's registry dump for TCP.
    t.fetch = {t.server.fetch_requests, t.server.fetch_latency_ns};
    t.insert = {t.server.insert_requests, t.server.insert_latency_ns};
    t.del = {t.server.delete_requests, t.server.delete_latency_ns};
    for (size_t s = 0; s < router->num_shards(); ++s) {
      auto stats = router->shard_client(s).Stats();
      if (!stats.ok()) Die("shard scrape: " + stats.status().ToString());
      const std::string& dump = stats->registry_text;
      t.frames += Sum(PromSeries(dump, "zr_tcp_frames_served_total"));
      t.socket_bytes += Sum(PromSeries(dump, "zr_tcp_bytes_read_total")) +
                        Sum(PromSeries(dump, "zr_tcp_bytes_written_total"));
      t.protocol_errors +=
          Sum(PromSeries(dump, "zr_tcp_protocol_errors_total"));
      // A one-loop server publishes no per-loop series: its one loop
      // served every frame.
      std::vector<double> loops =
          PromSeries(dump, "zr_tcp_loop_frames_served_total");
      if (loops.empty()) loops = PromSeries(dump, "zr_tcp_frames_served_total");
      t.loop_frames.insert(t.loop_frames.end(), loops.begin(), loops.end());
    }
  }
  return t;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::vector<zr::obs::SpanRecord>& program_spans) {
  std::ofstream out(path);
  out << "source\tname\ttrace_id\tspan_id\tparent_id\tstart_ns\tend_ns\t"
         "duration_ns\n";
  for (const Span& s : spans) {
    out << "bench\t" << s.name << '\t' << s.trace_id << '\t' << s.span_id
        << '\t' << s.parent_id << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.duration_ns() << '\n';
  }
  // The program's own stage spans carry a duration only.
  for (const auto& s : program_spans) {
    out << "program\t" << zr::obs::StageName(s.stage) << '\t' << s.trace_id
        << "\t\t\t\t\t" << s.duration_ns << '\n';
  }
}

/// What the traced window produced.
struct TracedWindow {
  Tally tally;  // the window's ops (zr_read: plus its write probe)
  double ops_per_s = 0, untraced_ops_per_s = 0;
  std::vector<Span> spans;
  std::vector<zr::obs::SpanRecord> program;
  Telemetry before, after;
};

std::vector<Metric> LayerMetrics(Deployment* d, const TracedWindow& tw) {
  const Tally& traced = tw.tally;
  const Telemetry& t0 = tw.before;
  const Telemetry& t1 = tw.after;
  const double ops = static_cast<double>(traced.ops());
  const double queries = static_cast<double>(traced.queries);

  // Self time per layer, over the traces whose root is a query.
  std::vector<uint64_t> self = SelfTimes(tw.spans);
  std::unordered_map<uint64_t, std::string> root_of;  // trace -> root span
  double query_total_ns = 0.0;
  for (const Span& s : tw.spans) {
    if (s.parent_id != 0) continue;
    root_of[s.trace_id] = s.name;
    if (s.name == "core.query") {
      query_total_ns += static_cast<double>(s.duration_ns());
    }
  }
  auto root_is = [&](uint64_t trace, const char* name) {
    auto it = root_of.find(trace);
    return it != root_of.end() && it->second == name;
  };

  // Program spans: index serve time inside each query trace (it moves from
  // the store span's self time to zerber) and each insert trace, WAL
  // appends, fan-out and shard serve.
  std::unordered_map<uint64_t, double> index_in_query;
  double index_in_inserts = 0, serve_in_inserts = 0, served_inserts = 0;
  std::vector<double> wal_ns, fanout_ns, shard_serve_ns;
  for (const auto& s : tw.program) {
    const bool in_query = root_is(s.trace_id, "core.query");
    const bool in_insert = root_is(s.trace_id, "core.insert");
    const double ns = static_cast<double>(s.duration_ns);
    switch (s.stage) {
      case zr::obs::Stage::kIndexServe:
        if (in_query) index_in_query[s.trace_id] += ns;
        if (in_insert) index_in_inserts += ns;
        break;
      case zr::obs::Stage::kWalAppend:
        wal_ns.push_back(ns);
        break;
      case zr::obs::Stage::kRouterFanout:
        fanout_ns.push_back(ns);
        break;
      case zr::obs::Stage::kShardServe:
        shard_serve_ns.push_back(ns);
        if (in_insert) {
          serve_in_inserts += ns;
          served_inserts += 1;
        }
        break;
      default:
        break;
    }
  }

  std::map<std::string, double> layer_self = {
      {"core", 0}, {"net", 0}, {"zerber", 0}, {"store", 0}, {"cluster", 0}};
  std::map<std::string, std::pair<double, double>> by_name;  // sum, count
  std::unordered_map<uint64_t, double> store_self_in_query;
  double exchange_self_ns = 0;
  for (size_t i = 0; i < tw.spans.size(); ++i) {
    const Span& s = tw.spans[i];
    const double self_ns = static_cast<double>(self[i]);
    auto& agg = by_name[s.name];
    agg.first += static_cast<double>(s.duration_ns());
    agg.second += 1;
    const std::string layer = LayerOf(s.name);
    if (layer == "net") exchange_self_ns += self_ns;
    if (!root_is(s.trace_id, "core.query")) continue;
    if (layer == "store") {
      store_self_in_query[s.trace_id] += self_ns;
    } else {
      layer_self[layer] += self_ns;
    }
  }
  for (const auto& [trace, store_self] : store_self_in_query) {
    auto it = index_in_query.find(trace);
    double index =
        it == index_in_query.end() ? 0.0 : std::min(store_self, it->second);
    layer_self["store"] += store_self - index;
    layer_self["zerber"] += index;
  }
  auto mean_of = [&](const std::string& prefix) {
    double sum = 0, count = 0;
    for (const auto& [name, agg] : by_name) {
      if (name.rfind(prefix, 0) == 0) {
        sum += agg.first;
        count += agg.second;
      }
    }
    return std::make_pair(Ratio(sum, count), count);
  };
  auto per_query = [&](const char* layer) {
    return Ratio(layer_self[layer], queries);
  };

  // Crypto, from the samples the clients took during the window.
  double open_ns = 0, opened = 0, seal_ns = 0, sealed = 0;
  for (auto& c : d->clients) {
    open_ns += static_cast<double>(c->open_ns);
    opened += static_cast<double>(c->opened);
    seal_ns += static_cast<double>(c->seal_ns);
    sealed += static_cast<double>(c->sealed);
  }

  const double mean_query_ns = Ratio(query_total_ns, queries);
  const double elements_per_query =
      Ratio(static_cast<double>(traced.elements), queries);

  // Durable insert minus the index insert inside it: the WAL write. On
  // cluster4 the durable backend runs in the shard processes, so their
  // serve span of each insert frame stands in for the store span.
  const auto [store_insert_ns, store_inserts] = mean_of("store.insert");
  const double store_write_self_ns =
      store_inserts > 0
          ? Ratio(store_insert_ns * store_inserts - index_in_inserts,
                  store_inserts)
          : Ratio(serve_in_inserts - index_in_inserts, served_inserts);

  double loop_imbalance = 0.0;
  if (!t1.loop_frames.empty() &&
      t1.loop_frames.size() == t0.loop_frames.size()) {
    std::vector<double> delta;
    for (size_t i = 0; i < t1.loop_frames.size(); ++i) {
      delta.push_back(t1.loop_frames[i] - t0.loop_frames[i]);
    }
    loop_imbalance =
        Ratio(*std::max_element(delta.begin(), delta.end()), Mean(delta));
  }

  double sum_self = 0.0;
  for (const auto& [layer, ns] : layer_self) sum_self += ns;
  const double residual =
      Ratio(std::abs(query_total_ns - sum_self), query_total_ns);

  const IndexOps fetch{t1.fetch.count - t0.fetch.count,
                       t1.fetch.sum_ns - t0.fetch.sum_ns};
  const IndexOps insert{t1.insert.count - t0.insert.count,
                        t1.insert.sum_ns - t0.insert.sum_ns};
  const IndexOps del{t1.del.count - t0.del.count,
                     t1.del.sum_ns - t0.del.sum_ns};
  auto mean_us = [](const IndexOps& o) {
    return Us(
        Ratio(static_cast<double>(o.sum_ns), static_cast<double>(o.count)));
  };
  const zr::zerber::ServerStats& s0 = t0.server;
  const zr::zerber::ServerStats& s1 = t1.server;
  const uint64_t fetches = s1.fetch_requests - s0.fetch_requests;
  const uint64_t inserts = s1.insert_requests - s0.insert_requests;
  const uint64_t deletes = s1.delete_requests - s0.delete_requests;
  const double elements_served =
      static_cast<double>(s1.elements_served - s0.elements_served);
  const double attempts =
      static_cast<double>(t1.router.attempts - t0.router.attempts);
  const double wasted = static_cast<double>(
      (t1.router.retries - t0.router.retries) +
      (t1.router.transport_errors - t0.router.transport_errors) +
      (t1.router.unavailable - t0.router.unavailable));
  const auto [router_us, router_calls] = mean_of("cluster.");
  const auto [exchange_us, exchanges] = mean_of("net.");
  const double mutations =
      static_cast<double>(traced.insert_ns.size() + traced.delete_ns.size());

  std::vector<Metric> m = {
      {"core.query_self_us", Us(per_query("core")), "us"},
      {"core.elements_per_query", elements_per_query, "count"},
      {"core.hit_ratio",
       Ratio(static_cast<double>(traced.hits),
             static_cast<double>(traced.elements)),
       "ratio"},
      {"crypto.open_ns", Ratio(open_ns, opened), "ns"},
      {"crypto.seal_ns", Ratio(seal_ns, sealed), "ns"},
      {"crypto.open_share",
       Ratio(elements_per_query * Ratio(open_ns, opened), mean_query_ns),
       "ratio"},
      {"net.exchange_us", Us(exchange_us), "us"},
      {"net.self_us", Us(Ratio(exchange_self_ns, exchanges)), "us"},
      {"net.frames_per_op", Ratio(t1.frames - t0.frames, ops), "count"},
      {"net.socket_bytes_per_op", Ratio(t1.socket_bytes - t0.socket_bytes, ops),
       "B"},
      {"net.loop_imbalance", loop_imbalance, "ratio"},
      {"net.protocol_errors", t1.protocol_errors - t0.protocol_errors, "count"},
      {"index.fetch_us", mean_us(fetch), "us"},
      {"index.insert_us", mean_us(insert), "us"},
      {"index.delete_us", mean_us(del), "us"},
      {"index.elements_per_fetch",
       Ratio(elements_served, static_cast<double>(fetches)), "count"},
      {"shard.multifetch_us",
       Us(mean_of(d->backend_layer + ".multifetch").first), "us"},
      {"store.wal_append_us", Us(Mean(wal_ns)), "us"},
      {"store.wal_append_p99_us",
       Us(ExactPercentile(wal_ns, 99.0).value_or(0.0)), "us"},
      {"store.write_self_us", Us(store_write_self_ns), "us"},
      {"store.bytes_per_write",
       Ratio(static_cast<double>(t1.store_bytes - t0.store_bytes), mutations),
       "B"},
      {"cluster.router_us", Us(router_us), "us"},
      {"cluster.fanout_us", Us(Mean(fanout_ns)), "us"},
      {"cluster.shard_serve_us", Us(Mean(shard_serve_ns)), "us"},
      {"cluster.attempts_per_call", Ratio(attempts, router_calls), "count"},
      {"cluster.wasted_share", Ratio(wasted, attempts), "ratio"},
      {"cluster.shard_cpu_us_per_op",
       Us(Ratio((t1.shard_cpu_s - t0.shard_cpu_s) * 1e9, ops)), "us"},
      // core's share is core.query_self_us above.
      {"self.net_us", Us(per_query("net")), "us"},
      {"self.zerber_us", Us(per_query("zerber")), "us"},
      {"self.store_us", Us(per_query("store")), "us"},
      {"self.cluster_us", Us(per_query("cluster")), "us"},
      {"trace.query_us", Us(mean_query_ns), "us"},
      {"trace.self_residual", residual, "ratio"},
      {"trace.overhead", Ratio(tw.untraced_ops_per_s, tw.ops_per_s), "ratio"},
  };

  std::printf(
      "traced: %zu spans of the benchmark, %zu of the program; %.0f queries, "
      "mean %.1f us = core %.1f + net %.1f + zerber %.1f + store %.1f + "
      "cluster %.1f (residual %.4f)\n",
      tw.spans.size(), tw.program.size(), queries, Us(mean_query_ns),
      Us(per_query("core")), Us(per_query("net")), Us(per_query("zerber")),
      Us(per_query("store")), Us(per_query("cluster")), residual);
  if (residual > kMaxSelfResidual) {
    Fail("layer self times miss the mean query time by more than " +
             std::to_string(kMaxSelfResidual),
         traced.attempted, traced.failed);
  }
  std::printf("index cross-check: ServerStats fetch %" PRIu64 " insert %" PRIu64
              " delete %" PRIu64 "; registry fetch %" PRIu64 " insert %" PRIu64
              " delete %" PRIu64 "\n",
              fetches, inserts, deletes, fetch.count, insert.count, del.count);
  if (fetch.count != fetches || insert.count != inserts ||
      del.count != deletes) {
    Fail("registry histograms and ServerStats count different index ops",
         traced.attempted, traced.failed);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string shard_server;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc % 2 != 1) Die("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (flag == "--shard-server") {
      a.shard_server = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1) ||
      a.shard_server.empty()) {
    Die("usage: zr_perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--shard-server PATH");
  }
  return a;
}

/// --trace 0: the end-to-end metrics, with no tracing and no decorators.
std::vector<Metric> MeasureEndToEnd(Deployment* d, const Args& args,
                                    const std::vector<double>& setup_s,
                                    Tally* all) {
  const bool probe = d->workload->kind == Kind::kInMemory;
  const size_t slices = probe ? kProbeSlices : 1;
  uint64_t wall_ns = 0;
  double cpu = 0;
  Tally window, writes;
  for (size_t i = 0; i < slices; ++i) {
    const double cpu0 = ProcessCpuSeconds() + ShardCpuSeconds(*d);
    uint64_t slice_ns = 0;
    window.Merge(RunWindow(d, args.seconds / slices, &slice_ns));
    cpu += ProcessCpuSeconds() + ShardCpuSeconds(*d) - cpu0;
    wall_ns += slice_ns;
    if (probe) writes.Merge(RunWriteProbe(d, kProbeRounds / kProbeSlices));
  }
  all->Merge(window);
  all->attempted += writes.attempted;
  all->failed += writes.failed;
  if (!probe) writes = window;
  const double rss = PeakRssMb() + ShardPeakRssMb(*d);

  std::vector<Metric> metrics;
  AddLatency("query", window.query_ns, &metrics, all->attempted);
  AddLatency("insert", writes.insert_ns, &metrics, all->attempted);
  AddLatency("delete", writes.delete_ns, &metrics, all->attempted);
  const double ops = static_cast<double>(window.ops());
  const double queries = static_cast<double>(window.queries);
  metrics.push_back({"ops_per_s", ops / Seconds(wall_ns), "ops/s"});
  metrics.push_back({"cpu_us_per_op", cpu * 1e6 / ops, "us"});
  metrics.push_back({"bytes_per_query",
                     static_cast<double>(window.query_bytes) / queries, "B"});
  metrics.push_back({"round_trips_per_query",
                     static_cast<double>(window.query_exchanges) / queries,
                     "count"});
  metrics.push_back({"setup_s", Median(setup_s), "s"});
  metrics.push_back({"peak_rss_mb", rss, "MB"});
  return metrics;
}

/// --trace 1: half the window untraced (for trace.overhead), half traced.
std::vector<Metric> MeasureLayers(Deployment* d, const Args& args,
                                  const std::string& run_dir,
                                  const std::string& data_root, Tally* all) {
  uint64_t untraced_ns = 0, traced_ns = 0;
  Tally untraced = RunWindow(d, args.seconds / 2, &untraced_ns);
  all->Merge(untraced);

  TracedWindow tw;
  tw.untraced_ops_per_s =
      static_cast<double>(untraced.ops()) / Seconds(untraced_ns);
  (void)DrainSpans();
  (void)zr::obs::Tracer::Global().Drain();
  const uint64_t dropped0 = zr::obs::Tracer::Global().dropped();
  tw.before = ReadTelemetry(d, data_root);

  // The program's tracer ring holds 64k spans: drain it while tracing.
  std::atomic<bool> draining{true};
  zr::Mutex program_mu;
  std::thread drainer([&] {
    while (draining.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      auto batch = zr::obs::Tracer::Global().Drain();
      zr::MutexLock lock(program_mu);
      tw.program.insert(tw.program.end(), batch.begin(), batch.end());
    }
  });
  SetTracing(true);
  d->sample_crypto = true;
  tw.tally = RunWindow(d, args.seconds / 2, &traced_ns);
  SetTracing(false);
  tw.ops_per_s = static_cast<double>(tw.tally.ops()) / Seconds(traced_ns);
  if (d->workload->kind == Kind::kInMemory) {
    // Untraced: the probe feeds the index histograms and the seal timing,
    // not the span-derived metrics.
    Tally probe = RunWriteProbe(d, kProbeRounds);
    tw.tally.attempted += probe.attempted;
    tw.tally.failed += probe.failed;
    tw.tally.insert_ns = probe.insert_ns;
    tw.tally.delete_ns = probe.delete_ns;
  }
  d->sample_crypto = false;
  draining.store(false);
  drainer.join();
  {
    auto batch = zr::obs::Tracer::Global().Drain();
    tw.program.insert(tw.program.end(), batch.begin(), batch.end());
  }
  all->Merge(tw.tally);
  if (zr::obs::Tracer::Global().dropped() != dropped0) {
    Fail("the program's tracer dropped spans", all->attempted, all->failed);
  }
  tw.after = ReadTelemetry(d, data_root);
  tw.spans = DrainSpans();
  WriteSpans(run_dir + "/spans-" + d->workload->name + ".tsv", tw.spans,
             tw.program);
  return LayerMetrics(d, tw);
}

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) Die("unknown workload " + args.workload);
  if (!OptimisedBuild()) Die("refusing to report from an unoptimised build");

  const std::string run_dir = fs::absolute(".bench_run").string();
  FreshDir(run_dir);
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n", w->name,
              args.seed, args.seconds, args.trace);
  PrintHost(run_dir);

  const bool trace = args.trace == 1;
  const size_t setups = trace ? 1 : kSetups;
  const std::string data_root = run_dir + "/" + w->name;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (size_t i = 0; i < setups; ++i) {
    d.reset();  // tear the previous deployment down before timing the next
    const uint64_t start = NowNs();
    d = Setup(*w, args.seed, trace, data_root, args.shard_server);
    const uint64_t built = NowNs() - start;
    // The exact check runs on the last deployment before any op of the
    // run's own has touched it, and is not part of set-up time.
    if (i + 1 == setups) {
      if (std::string diff = RunGate(d.get(), args.seed, /*exact=*/true);
          !diff.empty()) {
        Fail("answer before the window differs from the oracle: " + diff, 1,
             0);
      }
    }
    const uint64_t warm_start = NowNs();
    WarmUp(d.get());
    setup_s.push_back(Seconds(built + NowNs() - warm_start));
  }
  std::printf("setup:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s\n");

  for (auto& c : d->clients) c->transport->ResetStats();
  const zr::net::TcpServerStats tcp_before =
      d->tcp ? d->tcp->stats() : zr::net::TcpServerStats();
  Tally all;
  std::vector<Metric> metrics =
      trace ? MeasureLayers(d.get(), args, run_dir, data_root, &all)
            : MeasureEndToEnd(d.get(), args, setup_s, &all);

  if (std::string f = CheckFraming(d.get(), tcp_before); !f.empty()) {
    Fail(f, all.attempted, all.failed);
  }
  if (std::string diff = RunGate(d.get(), args.seed, /*exact=*/false);
      !diff.empty()) {
    Fail("answer after the window differs from the oracle: " + diff,
         all.attempted, all.failed);
  }
  std::printf("ops: %" PRIu64 " attempted, %" PRIu64
              " failed, failed_op_share %.6f ratio\n",
              all.attempted, all.failed,
              Ratio(static_cast<double>(all.failed),
                    static_cast<double>(all.attempted)));
  if (all.failed != 0) Fail("ops failed", all.attempted, all.failed);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  d.reset();
  std::error_code ec;
  fs::remove_all(data_root, ec);
  PrintResult(true, all.attempted, all.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const perfbench::CheckFailure& f) {
    std::printf("CHECK FAILED: %s\n", f.message.c_str());
    perfbench::PrintResult(false, std::max<uint64_t>(f.attempted, 1), f.failed,
                           {});
    return 1;
  } catch (const perfbench::Error& e) {
    std::fprintf(stderr, "zr_perfbench: %s\n", e.message.c_str());
    return 2;
  }
}
