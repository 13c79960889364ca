#include "faults/crash.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ckpt/file_store.hpp"
#include "faults/faulty_stores.hpp"

namespace ndpcr::faults {
namespace {

constexpr std::uint32_t kLocalBase = 0x1000'0000u;
constexpr std::uint32_t kPartnerBase = 0x2000'0000u;
constexpr std::uint32_t kIoBase = 0x3000'0000u;

// Canonical phase order within an epoch: the commit pipeline writes
// partner spaces, then the IO store, then local NVM.
int phase_of(std::uint32_t target_id) {
  if (target_id >= kIoBase) return 1;
  if (target_id >= kPartnerBase) return 0;
  return 2;
}

// KvStore view of a FileStore, so the IO level can live on a real
// filesystem (latest-pointer updates included) behind the manager's
// KvStore interface. Ranks kDedupBlockRank etc. map to directories like
// any other rank. The mutation gate goes to the FileStore, whose data
// write and pointer update are distinct crash sites.
class FileKvAdapter final : public ckpt::KvStore {
 public:
  explicit FileKvAdapter(std::filesystem::path root)
      : files_(std::move(root)) {}

  ckpt::StoreStatus put(std::uint32_t rank, std::uint64_t checkpoint_id,
                        Bytes data) override {
    return files_.put(rank, checkpoint_id, ByteSpan(data));
  }
  [[nodiscard]] ckpt::StoreResult<Bytes> get(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override {
    return files_.get(rank, checkpoint_id);
  }
  // A file has no in-memory view to borrow: read it and digest the copy.
  [[nodiscard]] ckpt::StoreResult<ckpt::EntryDigest> digest(
      std::uint32_t rank, std::uint64_t checkpoint_id) const override {
    auto got = files_.get(rank, checkpoint_id);
    if (!got.ok()) return got.error();
    return ckpt::digest_of(ByteSpan(*got));
  }
  [[nodiscard]] bool contains(std::uint32_t rank,
                              std::uint64_t checkpoint_id) const override {
    return files_.contains(rank, checkpoint_id);
  }
  [[nodiscard]] std::optional<std::uint64_t> newest_id(
      std::uint32_t rank) const override {
    return files_.newest_id(rank);
  }
  [[nodiscard]] std::vector<std::uint64_t> list(
      std::uint32_t rank) const override {
    return files_.list(rank);
  }
  void erase(std::uint32_t rank, std::uint64_t checkpoint_id) override {
    files_.erase(rank, checkpoint_id);
  }
  void clear() override {}  // unused by the harness; directories persist
  void set_mutation_gate(ckpt::MutationGate gate) override {
    files_.set_mutation_gate(std::move(gate));
  }

 private:
  ckpt::FileStore files_;
};

}  // namespace

std::string device_name(std::uint32_t target_id) {
  if (target_id >= kIoBase) return "io";
  if (target_id >= kPartnerBase) {
    return "partner[" + std::to_string(target_id - kPartnerBase) + "]";
  }
  return "local[" + std::to_string(target_id - kLocalBase) + "]";
}

std::string describe(const CrashPoint& point) {
  std::string out = "epoch=" + std::to_string(point.epoch) + " " +
                    device_name(point.device) + " op=" +
                    std::to_string(point.op) + " " +
                    ckpt::to_string(point.site.op) +
                    " rank=" + std::to_string(point.site.rank) +
                    " key=" + std::to_string(point.site.key) + " " +
                    std::to_string(point.site.size) + "B";
  return out;
}

CrashSimulator::CrashSimulator(const CrashSimConfig& config)
    : config_(config) {
  if (config.node_count == 0) {
    throw std::invalid_argument("node_count must be positive");
  }
  if (config.rates.any()) {
    auto plan = std::make_shared<FaultPlan>(config.fault_seed);
    // Local NVM faults arrive through the local_write_hook (attach()),
    // not a store decorator, matching the chaos harness's wiring.
    plan->set_rates(io_target(), config.rates);
    for (std::uint32_t h = 0; h < config.node_count; ++h) {
      plan->set_rates(partner_target(h), config.rates);
      plan->set_rates(local_target(h), config.rates);
    }
    plan_ = std::move(plan);
  }
  local_.reserve(config.node_count);
  partner_.reserve(config.node_count);
  // With no plan the fault decorators forward everything untouched.
  for (std::uint32_t r = 0; r < config.node_count; ++r) {
    local_.push_back(
        std::make_shared<ckpt::NvmStore>(config.nvm_capacity_bytes));
    partner_.push_back(
        std::make_unique<FaultyKvStore>(plan_, partner_target(r)));
  }
  if (config.io_root.empty()) {
    io_ = std::make_unique<FaultyKvStore>(plan_, io_target());
  } else {
    io_ = std::make_unique<FaultyKvStore>(
        plan_, io_target(), std::make_unique<FileKvAdapter>(config.io_root));
  }
  devices_.resize(2 * config.node_count + 1);
  for (std::uint32_t h = 0; h < config.node_count; ++h) {
    devices_[h].id = partner_target(h).id;
  }
  devices_[config.node_count].id = io_target().id;
  for (std::uint32_t r = 0; r < config.node_count; ++r) {
    devices_[config.node_count + 1 + r].id = local_target(r).id;
  }
  install_gates();
}

CrashSimulator::~CrashSimulator() {
  // Gates capture `this`; make sure no store outlives the simulator with
  // a dangling gate (local_ are shared_ptrs a caller could hold).
  for (auto& store : local_) store->set_mutation_gate(nullptr);
}

void CrashSimulator::install_gates() {
  for (std::uint32_t h = 0; h < config_.node_count; ++h) {
    partner_[h]->set_mutation_gate(
        [this, h](const ckpt::MutationSite& site) { return gate(h, site); });
  }
  const std::size_t io_index = config_.node_count;
  io_->set_mutation_gate([this, io_index](const ckpt::MutationSite& site) {
    return gate(io_index, site);
  });
  for (std::uint32_t r = 0; r < config_.node_count; ++r) {
    const std::size_t idx = config_.node_count + 1 + r;
    local_[r]->set_mutation_gate(
        [this, idx](const ckpt::MutationSite& site) {
          return gate(idx, site);
        });
  }
}

void CrashSimulator::attach(ckpt::MultilevelConfig& config) const {
  if (config.node_count != config_.node_count) {
    throw std::invalid_argument(
        "manager/simulator node_count mismatch");
  }
  config.nvm_capacity_bytes = config_.nvm_capacity_bytes;
  config.nvm_factory = [this](std::uint32_t rank) {
    return local_.at(rank);
  };
  config.store_factory =
      [this](ckpt::StoreLevel level,
             std::uint32_t host) -> std::unique_ptr<ckpt::KvStore> {
    return std::make_unique<ckpt::ForwardingKvStore>(
        level == ckpt::StoreLevel::kPartner ? *partner_.at(host) : *io_);
  };
  if (plan_) {
    config.local_write_hook = make_local_write_hook(plan_);
  }
}

void CrashSimulator::begin_commit(std::uint64_t id) {
  epoch_.store(id, std::memory_order_relaxed);
}

void CrashSimulator::record() {
  mode_ = Mode::kRecord;
  crashed_.store(false, std::memory_order_relaxed);
  for (Device& dev : devices_) {
    dev.events.clear();
    dev.ops = 0;
  }
}

void CrashSimulator::arm(const std::vector<CrashPoint>& golden,
                         std::size_t k, bool torn,
                         std::uint64_t torn_salt) {
  if (k >= golden.size()) {
    throw std::out_of_range("crash point index past the golden run");
  }
  mode_ = Mode::kArmed;
  crashed_.store(false, std::memory_order_relaxed);
  for (Device& dev : devices_) {
    dev.events.clear();
    dev.ops = 0;
    dev.cutoff = 0;
    dev.torn_at_cutoff = false;
    dev.torn_salt = torn_salt;
  }
  // Per-device cutoff: how many of the device's mutations happen strictly
  // before the crash in canonical order. Everything at or past the cutoff
  // is after death - except the crash device's cutoff op itself, which
  // may land torn instead of vanishing.
  auto device_by_id = [&](std::uint32_t id) -> Device& {
    for (Device& dev : devices_) {
      if (dev.id == id) return dev;
    }
    throw std::invalid_argument("crash point names an unknown device");
  };
  for (std::size_t i = 0; i < k; ++i) {
    ++device_by_id(golden[i].device).cutoff;
  }
  device_by_id(golden[k].device).torn_at_cutoff = torn;
}

void CrashSimulator::disarm() {
  mode_ = Mode::kIdle;
  // The armed run's verdict is consumed before restart; clear it so the
  // restarted life reads clean.
  crashed_.store(false, std::memory_order_relaxed);
}

ckpt::MutationDecision CrashSimulator::gate(std::size_t device_index,
                                            ckpt::MutationSite site) {
  Device& dev = devices_[device_index];
  const std::uint64_t op = dev.ops++;
  switch (mode_) {
    case Mode::kIdle:
      return {};
    case Mode::kRecord: {
      CrashPoint point;
      point.epoch = epoch_.load(std::memory_order_relaxed);
      point.device = dev.id;
      point.op = op;
      if (dev.id >= kLocalBase && dev.id < kPartnerBase) {
        // NvmStore does not know its rank; name it for the listing.
        site.rank = dev.id - kLocalBase;
      }
      point.site = site;
      dev.events.push_back(point);
      return {};
    }
    case Mode::kArmed: {
      if (op < dev.cutoff) return {};
      ckpt::MutationDecision decision;
      if (op == dev.cutoff && dev.torn_at_cutoff &&
          site.op == ckpt::MutationOp::kPut) {
        // The dying write lands as a salt-chosen prefix.
        decision.torn = true;
        decision.keep_bytes =
            site.size == 0
                ? 0
                : ckpt::splitmix64(dev.torn_salt ^ (op * 0x9E3779B97F4A7C15ull)) %
                      site.size;
      } else {
        decision.drop = true;
      }
      crashed_.store(true, std::memory_order_relaxed);
      return decision;
    }
  }
  return {};
}

std::vector<CrashPoint> CrashSimulator::canonical_points() const {
  std::vector<CrashPoint> all;
  for (const Device& dev : devices_) {
    all.insert(all.end(), dev.events.begin(), dev.events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const CrashPoint& a, const CrashPoint& b) {
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              const int pa = phase_of(a.device);
              const int pb = phase_of(b.device);
              if (pa != pb) return pa < pb;
              if (a.device != b.device) return a.device < b.device;
              return a.op < b.op;
            });
  return all;
}

}  // namespace ndpcr::faults
