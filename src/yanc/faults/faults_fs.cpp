#include "yanc/faults/faults_fs.hpp"

#include "yanc/util/strings.hpp"

namespace yanc::faults {

Result<std::shared_ptr<vfs::SynthFs>> mount_faults_fs(
    vfs::Vfs& vfs, std::shared_ptr<Injector> injector,
    const std::string& mount_path) {
  if (!injector) return Errc::invalid_argument;
  injector->bind_metrics(*vfs.metrics());
  if (auto ec = vfs.mkdir_p(mount_path, 0755, vfs::Credentials::root()))
    return ec;
  auto fs = std::make_shared<vfs::SynthFs>();
  for (auto [scope, path] : {std::pair{Scope::channel, "channel/policy"},
                             std::pair{Scope::transport, "transport/policy"}})
    fs->add_file(
        path,
        [injector, scope] { return injector->plan(scope).format() + "\n"; },
        [injector, scope](std::string_view text) -> Status {
          auto plan = FaultPlan::parse(text);
          if (!plan) return plan.error();
          injector->set_plan(scope, *plan);
          return ok_status();
        });
  fs->add_file(
      "seed", [injector] { return std::to_string(injector->seed()) + "\n"; },
      [injector](std::string_view text) -> Status {
        auto seed = parse_u64(trim(text));
        if (!seed) return make_error_code(Errc::invalid_argument);
        injector->reseed(*seed);
        return ok_status();
      });
  if (auto ec = vfs.mount(mount_path, fs)) return ec;
  return fs;
}

}  // namespace yanc::faults
