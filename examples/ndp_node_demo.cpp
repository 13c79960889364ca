// Single-node walkthrough of the NDP pipeline (sections 4.2-4.3) with the
// functional agent: the host commits checkpoints of a running mini-app
// into the node's NVM through a local-only MultilevelManager; the NDP
// agent drains that NVM, compressing each checkpoint with a real codec and
// streaming it to the IO store in the background. The drained copies are
// the manager's IO level, so a node loss recovers through the manager's
// recover() from the newest checkpoint that reached IO.
//
//   build/examples/ndp_node_demo

#include <cstdio>
#include <memory>
#include <string>

#include "ckpt/multilevel.hpp"
#include "ckpt/stores.hpp"
#include "ndp/agent.hpp"
#include "workloads/miniapp.hpp"

int main() {
  using namespace ndpcr;

  auto app = workloads::make_miniapp("minife", 512 * 1024, 2024);

  ckpt::KvStore io_store;  // the parallel file system
  auto nvm = std::make_shared<ckpt::NvmStore>(4u << 20);
  ndp::AgentConfig cfg;
  cfg.compressed_capacity = 1u << 20;
  cfg.codec = compress::CodecId::kDeflateStyle;
  cfg.codec_level = 1;
  cfg.compress_bw = 1e6;  // deliberately slow: a drain outlasts an interval
  cfg.io_bw = 1e6;
  ndp::NdpAgent agent(cfg, io_store, nvm);

  // The host writes only the local level, into the NVM the agent drains;
  // the agent's copies on `io_store` are the manager's IO level.
  ckpt::MultilevelConfig mc;
  mc.partner_every = 0;
  mc.io_every = 0;
  mc.nvm_factory = [&](std::uint32_t) { return nvm; };
  mc.store_factory = [&](ckpt::StoreLevel level, std::uint32_t)
      -> std::unique_ptr<ckpt::KvStore> {
    if (level == ckpt::StoreLevel::kIo) {
      return std::make_unique<ckpt::ForwardingKvStore>(io_store);
    }
    return std::make_unique<ckpt::KvStore>();
  };
  ckpt::MultilevelManager manager(mc);

  std::puts("step  commit  NDP-busy  newest-on-IO  NVM-used  drained");
  const double compute_seconds_per_interval = 0.5;
  for (int interval = 1; interval <= 12; ++interval) {
    // Compute phase: the app advances while the NDP pumps in the
    // background (this is the whole point - the drain is off the
    // critical path).
    app->step();
    agent.pump(compute_seconds_per_interval);

    // Coordinated local checkpoint: host owns the NVM, the NDP pauses
    // (no pump during the commit).
    const Bytes image = app->checkpoint();
    const std::uint64_t id = manager.commit({ByteSpan(image)});
    agent.local_committed(id);

    std::printf("%4d  %6llu  %-8s  %-12s  %5zu KB  %llu\n", interval,
                static_cast<unsigned long long>(id),
                agent.busy() ? "yes" : "no",
                agent.newest_on_io()
                    ? std::to_string(*agent.newest_on_io()).c_str()
                    : "-",
                nvm->used_bytes() / 1024,
                static_cast<unsigned long long>(
                    agent.stats().drains_completed));
  }

  std::printf("\nNDP totals: %llu commits seen, %llu drained, %llu skipped "
              "(superseded), %.1f s busy, %.1f MB compressed -> %.1f MB "
              "to IO\n",
              static_cast<unsigned long long>(agent.stats().commits_seen),
              static_cast<unsigned long long>(
                  agent.stats().drains_completed),
              static_cast<unsigned long long>(agent.stats().drains_skipped),
              agent.stats().busy_seconds,
              static_cast<double>(agent.stats().bytes_compressed) / 1e6,
              static_cast<double>(agent.stats().bytes_to_io) / 1e6);

  // Node loss: the NVM and the drain in flight are gone; recover() falls
  // back to the newest drained copy.
  std::puts("\nnode lost - recovering through the manager...");
  agent.reset();
  manager.fail_node(0);
  const auto recovery = manager.recover();
  if (!recovery) {
    std::puts("nothing reached IO!");
    return 1;
  }
  app->restore(recovery->payloads[0]);
  std::printf("restored checkpoint %llu from %s -> app back at step %llu\n",
              static_cast<unsigned long long>(recovery->checkpoint_id),
              ckpt::to_string(recovery->levels[0]),
              static_cast<unsigned long long>(app->step_count()));
  return 0;
}
