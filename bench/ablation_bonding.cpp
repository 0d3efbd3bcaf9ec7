// Section 5 feature: channel bonding — CLIC stripes packets across several
// NICs through the switch. Scaling is limited by the shared 33 MHz PCI bus
// all the cards sit on, exactly as on the period hardware.
#include "bench/bench_util.hpp"

using namespace clicsim;

namespace {

struct BondRow {
  double mbps = 0.0;
  double tx_pci_util = 0.0;
  unsigned long long reordered = 0;
};

BondRow bond_point(bool fast_ethernet, int nics, int shards) {
  apps::Scenario s;
  s.cluster.shards = shards;
  s.cluster.nics_per_node = nics;
  s.clic.channel_bonding = nics > 1;
  if (fast_ethernet) {
    s.cluster.nic = hw::NicProfile::fast_ether_100();
    s.cluster.link.bits_per_s = 100e6;
    s.mtu = 1500;
  }

  apps::ClicBed bed(s.cluster, s.clic);
  bed.cluster.set_mtu_all(s.mtu);
  // 64 messages of 256 KiB.
  const apps::StreamStats st =
      apps::clic_stream(bed, 256 * 1024, 64 * 256 * 1024);

  BondRow row;
  row.mbps = st.mbps;
  row.tx_pci_util = bed.cluster.node(0).pci().utilization();
  const auto* ch = bed.module(1).channel_to(0);
  row.reordered =
      static_cast<unsigned long long>(ch ? ch->out_of_order() : 0);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = apps::parse_sweep_args(argc, argv);
  bench::heading("Ablation — channel bonding (several NICs per node)");

  // 2 media x 4 NIC counts, one cluster each.
  apps::SweepRunner<BondRow> runner(opt);
  for (const bool fast_ethernet : {true, false}) {
    for (int nics = 1; nics <= 4; ++nics) {
      runner.add([fast_ethernet, nics, shards = opt.shards] {
        return bond_point(fast_ethernet, nics, shards);
      });
    }
  }
  const auto rows = runner.run();

  std::size_t slot = 0;
  for (const bool fast_ethernet : {true, false}) {
    bench::subheading(fast_ethernet
                          ? "Fast Ethernet (wire-bound: bonding scales)"
                          : "Gigabit (PCI/memory-bound: bonding saturates)");
    std::printf("  %6s %10s %12s %14s %12s\n", "NICs", "Mb/s", "scaling",
                "tx PCI util", "reordered");

    double base = 0.0;
    for (int nics = 1; nics <= 4; ++nics) {
      const auto& row = rows[slot++];
      if (nics == 1) base = row.mbps;
      std::printf("  %6d %10.1f %11.2fx %13.0f%% %12llu\n", nics, row.mbps,
                  row.mbps / base, row.tx_pci_util * 100.0, row.reordered);
    }
  }

  bench::subheading("claims");
  std::printf(
      "  bonding increases bandwidth while the shared PCI bus has headroom;\n"
      "  the reliable channel's reorder buffer absorbs the striping\n"
      "  (out-of-order arrivals above) with zero retransmissions.\n");
  return bench::exit_code();
}
