//===--- LaunchSites.h - Locating dynamic-parallelism launches ---------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#ifndef DPO_SEMA_LAUNCHSITES_H
#define DPO_SEMA_LAUNCHSITES_H

#include "ast/Decl.h"
#include "ast/Stmt.h"

#include <string>
#include <vector>

namespace dpo {

struct LaunchSite {
  FunctionDecl *Caller = nullptr; ///< The function containing the launch.
  LaunchExpr *Launch = nullptr;
  FunctionDecl *Child = nullptr;  ///< Resolved kernel; null if undeclared.
  bool InStatementPosition = false;
  bool FromKernel = false;        ///< Caller is __global__ (a dynamic launch).
  /// "<caller>-><kernel>#<n>", n counting that caller/kernel pair in walk
  /// order: the name the bytecode compiler gives the site, which profiles
  /// and grid logs key on.
  std::string Name;
};

/// Collects all launch expressions in \p TU, resolving each to the launched
/// kernel's definition when available. Launches whose callee is a kernel
/// launched from device code (parent is __global__ or __device__) are
/// dynamic-parallelism launches; host-side launches are reported with
/// FromKernel == false.
std::vector<LaunchSite> findLaunchSites(TranslationUnit *TU);

/// Launch sites inside a single function.
std::vector<LaunchSite> findLaunchSites(TranslationUnit *TU,
                                        FunctionDecl *Caller);

} // namespace dpo

#endif // DPO_SEMA_LAUNCHSITES_H
