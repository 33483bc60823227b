//===--- LaunchSites.cpp --------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "sema/LaunchSites.h"

#include "ast/Walk.h"
#include "support/Casting.h"

#include <unordered_map>
#include <unordered_set>

using namespace dpo;

std::vector<LaunchSite> dpo::findLaunchSites(TranslationUnit *TU,
                                             FunctionDecl *Caller) {
  std::vector<LaunchSite> Sites;
  if (!Caller->body())
    return Sites;

  // Launches appearing directly in statement position.
  std::unordered_set<const Stmt *> StatementLaunches;
  rewriteStmts(Caller->body(), [&](Stmt *S) -> Stmt * {
    if (isa<LaunchExpr>(S))
      StatementLaunches.insert(S);
    return nullptr;
  });

  std::unordered_map<std::string, unsigned> Ordinals; // per launched kernel
  forEachExpr(Caller->body(), [&](Expr *E) {
    auto *L = dyn_cast<LaunchExpr>(E);
    if (!L)
      return;
    LaunchSite Site;
    Site.Caller = Caller;
    Site.Launch = L;
    Site.Child = TU ? TU->findFunction(L->kernel()) : nullptr;
    Site.InStatementPosition = StatementLaunches.count(L) != 0;
    Site.FromKernel = Caller->qualifiers().Global || Caller->qualifiers().Device;
    Site.Name = Caller->name() + "->" + L->kernel() + "#" +
                std::to_string(Ordinals[L->kernel()]++);
    Sites.push_back(Site);
  });
  return Sites;
}

std::vector<LaunchSite> dpo::findLaunchSites(TranslationUnit *TU) {
  std::vector<LaunchSite> Sites;
  for (Decl *D : TU->decls()) {
    auto *F = dyn_cast<FunctionDecl>(D);
    if (!F || !F->body())
      continue;
    std::vector<LaunchSite> Local = findLaunchSites(TU, F);
    Sites.insert(Sites.end(), Local.begin(), Local.end());
  }
  return Sites;
}
