//===--- Parser.cpp -----------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"

#include "lex/Lexer.h"
#include "parse/Typing.h"

#include <algorithm>
#include <cstdlib>

using namespace dpo;

Parser::Parser(std::vector<Token> Tokens, ASTContext &Ctx,
               DiagnosticEngine &Diags)
    : Tokens(std::move(Tokens)), Ctx(Ctx), Diags(Diags) {
  assert(!this->Tokens.empty() && this->Tokens.back().is(TokenKind::Eof) &&
         "token stream must end with Eof");
  TypeNames = {"dim3", "size_t", "uint", "uint32_t", "uint64_t", "int32_t",
               "int64_t", "cudaStream_t"};
}

Token Parser::consume() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }

bool Parser::tryConsume(TokenKind Kind) {
  if (cur().is(Kind)) {
    consume();
    return true;
  }
  return false;
}

bool Parser::expect(TokenKind Kind, std::string_view Context) {
  if (tryConsume(Kind))
    return true;
  error("expected " + std::string(tokenKindName(Kind)) + " " +
        std::string(Context) + ", found " +
        std::string(tokenKindName(cur().Kind)));
  return false;
}

void Parser::error(std::string Message) {
  Diags.error(cur().Loc, std::move(Message));
}

bool Parser::setHeight(unsigned H) {
  Height = H;
  return Depth + H <= MaxNestingDepth || nestingError();
}

bool Parser::nestingError() {
  if (!NestingReported)
    error("nesting exceeds the parser limit of " +
          std::to_string(MaxNestingDepth) + " levels");
  NestingReported = true;
  return false;
}

bool Parser::isTypeName(const Token &Tok) const {
  return Tok.is(TokenKind::Identifier) && TypeNames.count(Tok.Text) != 0;
}

bool Parser::startsType(const Token &Tok) const {
  return Tok.isTypeKeyword() || isTypeName(Tok);
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

Type Parser::parseType() {
  bool IsConst = false;
  bool SawUnsigned = false;
  bool SawSigned = false;
  int LongCount = 0;
  BuiltinKind Base = BuiltinKind::Int;
  bool SawBase = false;
  std::string NamedType;

  bool Progress = true;
  while (Progress) {
    Progress = false;
    switch (cur().Kind) {
    case TokenKind::KwConst:
      IsConst = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwUnsigned:
      SawUnsigned = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwSigned:
      SawSigned = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwVoid:
      Base = BuiltinKind::Void;
      SawBase = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwBool:
      Base = BuiltinKind::Bool;
      SawBase = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwChar:
      Base = BuiltinKind::Char;
      SawBase = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwShort:
      Base = BuiltinKind::Short;
      SawBase = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwInt:
      Base = BuiltinKind::Int;
      SawBase = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwLong:
      ++LongCount;
      SawBase = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwFloat:
      Base = BuiltinKind::Float;
      SawBase = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwDouble:
      Base = BuiltinKind::Double;
      SawBase = true;
      consume();
      Progress = true;
      break;
    case TokenKind::KwStruct:
      consume();
      if (cur().is(TokenKind::Identifier)) {
        NamedType = consume().Text;
        Base = BuiltinKind::Named;
        SawBase = true;
      } else {
        error("expected struct name");
      }
      Progress = true;
      break;
    case TokenKind::Identifier:
      if (!SawBase && !SawUnsigned && !SawSigned && isTypeName(cur())) {
        std::string Name = consume().Text;
        if (Name == "dim3") {
          Base = BuiltinKind::Dim3;
        } else if (Name == "size_t" || Name == "uint64_t") {
          Base = BuiltinKind::ULong;
          SawUnsigned = false;
        } else if (Name == "uint" || Name == "uint32_t") {
          Base = BuiltinKind::UInt;
        } else if (Name == "int32_t") {
          Base = BuiltinKind::Int;
        } else if (Name == "int64_t") {
          Base = BuiltinKind::Long;
        } else {
          Base = BuiltinKind::Named;
          NamedType = Name;
        }
        SawBase = true;
        Progress = true;
      }
      break;
    default:
      break;
    }
  }

  if (LongCount == 1)
    Base = BuiltinKind::Long;
  else if (LongCount >= 2)
    Base = BuiltinKind::LongLong;

  if (SawUnsigned) {
    switch (Base) {
    case BuiltinKind::Char: Base = BuiltinKind::UChar; break;
    case BuiltinKind::Short: Base = BuiltinKind::UShort; break;
    case BuiltinKind::Int: Base = BuiltinKind::UInt; break;
    case BuiltinKind::Long: Base = BuiltinKind::ULong; break;
    case BuiltinKind::LongLong: Base = BuiltinKind::ULongLong; break;
    default: Base = BuiltinKind::UInt; break;
    }
    if (!SawBase)
      Base = BuiltinKind::UInt;
  }

  Type Result = Base == BuiltinKind::Named ? Type::named(NamedType)
                                           : Type(Base);
  Result.setConst(IsConst);

  while (cur().is(TokenKind::Star)) {
    consume();
    Result = Result.pointerTo();
    // `const` or `__restrict__` after a star.
    while (cur().isOneOf(TokenKind::KwConst, TokenKind::KwRestrict)) {
      if (cur().is(TokenKind::KwRestrict))
        Result.setRestrict(true);
      consume();
    }
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

FunctionQualifiers Parser::parseFunctionQualifiers(bool &SawAny) {
  FunctionQualifiers Quals;
  SawAny = false;
  bool Progress = true;
  while (Progress) {
    Progress = true;
    switch (cur().Kind) {
    case TokenKind::KwGlobal: Quals.Global = true; break;
    case TokenKind::KwDevice: Quals.Device = true; break;
    case TokenKind::KwHost: Quals.Host = true; break;
    case TokenKind::KwStatic: Quals.Static = true; break;
    case TokenKind::KwInline: Quals.Inline = true; break;
    case TokenKind::KwForceInline: Quals.ForceInline = true; break;
    case TokenKind::KwNoInline: break; // Accepted and dropped.
    case TokenKind::KwExtern: Quals.Extern = true; break;
    default:
      Progress = false;
      break;
    }
    if (Progress) {
      consume();
      SawAny = true;
    }
  }
  return Quals;
}

VarDecl *Parser::parseDeclarator(Type BaseType, bool IsShared) {
  // Extra stars bind to this declarator: `int *a`.
  Type Ty = BaseType;
  while (tryConsume(TokenKind::Star))
    Ty = Ty.pointerTo();

  if (!cur().is(TokenKind::Identifier)) {
    error("expected identifier in declaration");
    return nullptr;
  }
  SourceLocation Loc = cur().Loc;
  std::string Name = consume().Text;

  auto *D = Ctx.create<VarDecl>(Ty, Name);
  D->setLoc(Loc);
  D->setShared(IsShared);

  // Array dimensions.
  while (tryConsume(TokenKind::LBracket)) {
    Expr *Dim = nullptr;
    if (!cur().is(TokenKind::RBracket))
      Dim = parseAssignment();
    if (!expect(TokenKind::RBracket, "after array dimension"))
      return nullptr;
    if (Dim)
      D->arrayDims().push_back(Dim);
  }

  // Initializer: `= expr` or constructor syntax `name(args)` (dim3 only in
  // our subset).
  if (tryConsume(TokenKind::Equal)) {
    Expr *Init = parseAssignment();
    if (!Init)
      return nullptr;
    D->setInit(Init);
  } else if (cur().is(TokenKind::LParen)) {
    consume();
    std::vector<Expr *> Args;
    if (!cur().is(TokenKind::RParen)) {
      do {
        Expr *Arg = parseAssignment();
        if (!Arg)
          return nullptr;
        Args.push_back(Arg);
      } while (tryConsume(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "after constructor arguments"))
      return nullptr;
    auto *Callee = Ctx.ref(Ty.isDim3() ? "dim3" : Ty.str());
    D->setInit(Ctx.create<CallExpr>(Callee, std::move(Args)));
  }
  return D;
}

DeclStmt *Parser::parseDeclStmt(bool ConsumeSemi) {
  bool IsShared = tryConsume(TokenKind::KwShared);
  Type BaseType = parseType();
  std::vector<VarDecl *> Decls;
  do {
    VarDecl *D = parseDeclarator(BaseType, IsShared);
    if (!D)
      return nullptr;
    Decls.push_back(D);
  } while (tryConsume(TokenKind::Comma));
  if (ConsumeSemi && !expect(TokenKind::Semi, "after declaration"))
    return nullptr;
  return Ctx.create<DeclStmt>(std::move(Decls));
}

FunctionDecl *Parser::parseFunctionRest(FunctionQualifiers Quals,
                                        Type ReturnType, std::string Name) {
  // At '('.
  expect(TokenKind::LParen, "after function name");
  std::vector<VarDecl *> Params;
  if (!cur().is(TokenKind::RParen)) {
    do {
      if (cur().is(TokenKind::KwVoid) && peek().is(TokenKind::RParen)) {
        consume();
        break;
      }
      Type ParamType = parseType();
      VarDecl *P = parseDeclarator(ParamType, /*IsShared=*/false);
      if (!P)
        return nullptr;
      Params.push_back(P);
    } while (tryConsume(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "after parameter list"))
    return nullptr;

  CompoundStmt *Body = nullptr;
  if (cur().is(TokenKind::LBrace)) {
    Body = parseCompoundStmt();
    if (!Body)
      return nullptr;
  } else if (!expect(TokenKind::Semi, "after function prototype"))
    return nullptr;

  auto *F = Ctx.create<FunctionDecl>(Quals, std::move(ReturnType),
                                     std::move(Name), std::move(Params), Body);
  return F;
}

Decl *Parser::parseTopLevelDecl() {
  if (cur().is(TokenKind::PreprocessorLine)) {
    auto *Raw = Ctx.create<RawDecl>(consume().Text);
    return Raw;
  }

  bool SawQual = false;
  FunctionQualifiers Quals = parseFunctionQualifiers(SawQual);

  if (!startsType(cur())) {
    error("expected declaration at top level, found " +
          std::string(tokenKindName(cur().Kind)));
    return nullptr;
  }

  Type Ty = parseType();
  if (!cur().is(TokenKind::Identifier)) {
    error("expected identifier in top-level declaration");
    return nullptr;
  }

  // Function if '(' follows the name; variable otherwise.
  if (peek().is(TokenKind::LParen)) {
    std::string Name = consume().Text;
    return parseFunctionRest(Quals, std::move(Ty), std::move(Name));
  }

  VarDecl *D = parseDeclarator(Ty, /*IsShared=*/false);
  if (!D)
    return nullptr;
  if (!expect(TokenKind::Semi, "after global variable"))
    return nullptr;
  return D;
}

TranslationUnit *Parser::parseTranslationUnit() {
  auto *TU = Ctx.create<TranslationUnit>();
  while (!cur().is(TokenKind::Eof)) {
    Decl *D = parseTopLevelDecl();
    if (!D)
      return nullptr;
    TU->decls().push_back(D);
  }
  if (Diags.hasErrors())
    return nullptr;
  assignTypes(TU);
  return TU;
}

Expr *Parser::parseStandaloneExpr() {
  Expr *E = parseExpr();
  if (!E || Diags.hasErrors())
    return nullptr;
  if (!cur().is(TokenKind::Eof)) {
    error("unexpected trailing tokens after expression");
    return nullptr;
  }
  assignTypes(E);
  return E;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

CompoundStmt *Parser::parseCompoundStmt() {
  if (!expect(TokenKind::LBrace, "to open block"))
    return nullptr;
  std::vector<Stmt *> Body;
  while (!cur().is(TokenKind::RBrace) && !cur().is(TokenKind::Eof)) {
    Stmt *S = parseStmt();
    if (!S)
      return nullptr;
    Body.push_back(S);
  }
  if (!expect(TokenKind::RBrace, "to close block"))
    return nullptr;
  return Ctx.create<CompoundStmt>(std::move(Body));
}

Stmt *Parser::parseIfStmt() {
  consume(); // 'if'
  if (!expect(TokenKind::LParen, "after 'if'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokenKind::RParen, "after if condition"))
    return nullptr;
  Stmt *Then = parseStmt();
  if (!Then)
    return nullptr;
  Stmt *Else = nullptr;
  if (tryConsume(TokenKind::KwElse)) {
    Else = parseStmt();
    if (!Else)
      return nullptr;
  }
  return Ctx.create<IfStmt>(Cond, Then, Else);
}

Stmt *Parser::parseForStmt() {
  consume(); // 'for'
  if (!expect(TokenKind::LParen, "after 'for'"))
    return nullptr;

  Stmt *Init = nullptr;
  if (!cur().is(TokenKind::Semi)) {
    if (startsType(cur()) || cur().is(TokenKind::KwShared)) {
      Init = parseDeclStmt(/*ConsumeSemi=*/false);
    } else {
      Init = parseExpr();
    }
    if (!Init)
      return nullptr;
  }
  if (!expect(TokenKind::Semi, "after for-init"))
    return nullptr;

  Expr *Cond = nullptr;
  if (!cur().is(TokenKind::Semi)) {
    Cond = parseExpr();
    if (!Cond)
      return nullptr;
  }
  if (!expect(TokenKind::Semi, "after for-condition"))
    return nullptr;

  Expr *Inc = nullptr;
  if (!cur().is(TokenKind::RParen)) {
    Inc = parseExpr();
    if (!Inc)
      return nullptr;
  }
  if (!expect(TokenKind::RParen, "after for-increment"))
    return nullptr;

  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return Ctx.create<ForStmt>(Init, Cond, Inc, Body);
}

Stmt *Parser::parseWhileStmt() {
  consume(); // 'while'
  if (!expect(TokenKind::LParen, "after 'while'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokenKind::RParen, "after while condition"))
    return nullptr;
  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return Ctx.create<WhileStmt>(Cond, Body);
}

Stmt *Parser::parseDoStmt() {
  consume(); // 'do'
  Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  if (!expect(TokenKind::KwWhile, "after do-body"))
    return nullptr;
  if (!expect(TokenKind::LParen, "after 'while'"))
    return nullptr;
  Expr *Cond = parseExpr();
  if (!Cond || !expect(TokenKind::RParen, "after do-while condition"))
    return nullptr;
  if (!expect(TokenKind::Semi, "after do-while"))
    return nullptr;
  return Ctx.create<DoStmt>(Body, Cond);
}

Stmt *Parser::parseStmt() {
  NestingScope Scope(*this);
  if (!Scope)
    return nullptr;
  switch (cur().Kind) {
  case TokenKind::LBrace:
    return parseCompoundStmt();
  case TokenKind::Semi:
    consume();
    return Ctx.create<NullStmt>();
  case TokenKind::KwIf:
    return parseIfStmt();
  case TokenKind::KwFor:
    return parseForStmt();
  case TokenKind::KwWhile:
    return parseWhileStmt();
  case TokenKind::KwDo:
    return parseDoStmt();
  case TokenKind::KwReturn: {
    consume();
    Expr *Value = nullptr;
    if (!cur().is(TokenKind::Semi)) {
      Value = parseExpr();
      if (!Value)
        return nullptr;
    }
    if (!expect(TokenKind::Semi, "after return"))
      return nullptr;
    return Ctx.create<ReturnStmt>(Value);
  }
  case TokenKind::KwBreak:
    consume();
    if (!expect(TokenKind::Semi, "after 'break'"))
      return nullptr;
    return Ctx.create<BreakStmt>();
  case TokenKind::KwContinue:
    consume();
    if (!expect(TokenKind::Semi, "after 'continue'"))
      return nullptr;
    return Ctx.create<ContinueStmt>();
  case TokenKind::KwShared:
    return parseDeclStmt(/*ConsumeSemi=*/true);
  default:
    break;
  }

  // Declaration?
  if (startsType(cur())) {
    // Distinguish `x * y;` (expression) from `T *y;` (declaration): type
    // keywords always start declarations; for known type names require a
    // declarator-looking continuation.
    return parseDeclStmt(/*ConsumeSemi=*/true);
  }

  // Expression statement.
  Expr *E = parseExpr();
  if (!E)
    return nullptr;
  if (!expect(TokenKind::Semi, "after expression"))
    return nullptr;
  return E;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

namespace {

unsigned tokenBinaryPrecedence(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 13;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 12;
  case TokenKind::LessLess:
  case TokenKind::GreaterGreater:
    return 11;
  case TokenKind::Less:
  case TokenKind::Greater:
  case TokenKind::LessEqual:
  case TokenKind::GreaterEqual:
    return 10;
  case TokenKind::EqualEqual:
  case TokenKind::ExclaimEqual:
    return 9;
  case TokenKind::Amp:
    return 8;
  case TokenKind::Caret:
    return 7;
  case TokenKind::Pipe:
    return 6;
  case TokenKind::AmpAmp:
    return 5;
  case TokenKind::PipePipe:
    return 4;
  default:
    return 0;
  }
}

BinaryOpKind tokenToBinaryOp(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Star: return BinaryOpKind::Mul;
  case TokenKind::Slash: return BinaryOpKind::Div;
  case TokenKind::Percent: return BinaryOpKind::Rem;
  case TokenKind::Plus: return BinaryOpKind::Add;
  case TokenKind::Minus: return BinaryOpKind::Sub;
  case TokenKind::LessLess: return BinaryOpKind::Shl;
  case TokenKind::GreaterGreater: return BinaryOpKind::Shr;
  case TokenKind::Less: return BinaryOpKind::LT;
  case TokenKind::Greater: return BinaryOpKind::GT;
  case TokenKind::LessEqual: return BinaryOpKind::LE;
  case TokenKind::GreaterEqual: return BinaryOpKind::GE;
  case TokenKind::EqualEqual: return BinaryOpKind::EQ;
  case TokenKind::ExclaimEqual: return BinaryOpKind::NE;
  case TokenKind::Amp: return BinaryOpKind::BitAnd;
  case TokenKind::Caret: return BinaryOpKind::BitXor;
  case TokenKind::Pipe: return BinaryOpKind::BitOr;
  case TokenKind::AmpAmp: return BinaryOpKind::LAnd;
  case TokenKind::PipePipe: return BinaryOpKind::LOr;
  default:
    assert(false && "not a binary operator token");
    return BinaryOpKind::Add;
  }
}

BinaryOpKind tokenToAssignOp(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Equal: return BinaryOpKind::Assign;
  case TokenKind::PlusEqual: return BinaryOpKind::AddAssign;
  case TokenKind::MinusEqual: return BinaryOpKind::SubAssign;
  case TokenKind::StarEqual: return BinaryOpKind::MulAssign;
  case TokenKind::SlashEqual: return BinaryOpKind::DivAssign;
  case TokenKind::PercentEqual: return BinaryOpKind::RemAssign;
  case TokenKind::LessLessEqual: return BinaryOpKind::ShlAssign;
  case TokenKind::GreaterGreaterEqual: return BinaryOpKind::ShrAssign;
  case TokenKind::AmpEqual: return BinaryOpKind::AndAssign;
  case TokenKind::PipeEqual: return BinaryOpKind::OrAssign;
  case TokenKind::CaretEqual: return BinaryOpKind::XorAssign;
  default:
    assert(false && "not an assignment token");
    return BinaryOpKind::Assign;
  }
}

} // namespace

bool Parser::parseCallArgs(std::vector<Expr *> &Args) {
  unsigned MaxHeight = 0;
  if (!cur().is(TokenKind::RParen)) {
    do {
      Expr *Arg = parseAssignment();
      if (!Arg)
        return false;
      Args.push_back(Arg);
      MaxHeight = std::max(MaxHeight, Height);
    } while (tryConsume(TokenKind::Comma));
  }
  Height = MaxHeight;
  return expect(TokenKind::RParen, "after call arguments");
}

Expr *Parser::parsePrimary() {
  SourceLocation Loc = cur().Loc;
  Height = 1; // leaves; the composite cases below recompute it
  switch (cur().Kind) {
  case TokenKind::IntegerLiteral: {
    Token Tok = consume();
    uint64_t Value = std::strtoull(Tok.Text.c_str(), nullptr, 0);
    auto *Lit = Ctx.create<IntegerLiteral>(Value, Tok.Text);
    Lit->setLoc(Loc);
    return Lit;
  }
  case TokenKind::FloatLiteral: {
    Token Tok = consume();
    double Value = std::strtod(Tok.Text.c_str(), nullptr);
    auto *Lit = Ctx.create<FloatLiteral>(Value, Tok.Text);
    Lit->setLoc(Loc);
    return Lit;
  }
  case TokenKind::KwTrue:
  case TokenKind::KwFalse: {
    bool Value = consume().is(TokenKind::KwTrue);
    auto *Lit = Ctx.create<BoolLiteral>(Value);
    Lit->setLoc(Loc);
    return Lit;
  }
  case TokenKind::StringLiteral: {
    auto *Lit = Ctx.create<StringLiteral>(consume().Text);
    Lit->setLoc(Loc);
    return Lit;
  }
  case TokenKind::CharLiteral: {
    Token Tok = consume();
    // Model char literals as integer literals with the original spelling.
    char Value = Tok.Text.size() >= 3 ? Tok.Text[1] : '\0';
    if (Value == '\\' && Tok.Text.size() >= 4) {
      switch (Tok.Text[2]) {
      case 'n': Value = '\n'; break;
      case 't': Value = '\t'; break;
      case '0': Value = '\0'; break;
      case '\\': Value = '\\'; break;
      default: Value = Tok.Text[2]; break;
      }
    }
    auto *Lit = Ctx.create<IntegerLiteral>((uint64_t)Value, Tok.Text);
    Lit->setLoc(Loc);
    return Lit;
  }
  case TokenKind::KwSizeof: {
    consume();
    if (!expect(TokenKind::LParen, "after 'sizeof'"))
      return nullptr;
    Type Queried = parseType();
    if (!expect(TokenKind::RParen, "after sizeof type"))
      return nullptr;
    auto *E = Ctx.create<SizeofExpr>(Queried);
    E->setLoc(Loc);
    return E;
  }
  case TokenKind::LParen: {
    // Cast or parenthesized expression. A cast requires a type token (or a
    // known type name) right after '(' and a ')' soon after.
    if (startsType(peek())) {
      // Look ahead to see whether this is `(type)` — scan past type tokens
      // and stars to find ')'.
      size_t Save = Pos;
      consume(); // '('
      Type CastType = parseType();
      if (cur().is(TokenKind::RParen)) {
        consume();
        Expr *Operand = parseUnary();
        if (!Operand || !setHeight(Height + 1))
          return nullptr;
        auto *E = Ctx.create<CastExpr>(CastType, Operand);
        E->setLoc(Loc);
        return E;
      }
      // Not a cast after all; rewind and parse as parenthesized expression.
      Pos = Save;
    }
    consume(); // '('
    Expr *Inner = parseExpr();
    if (!Inner ||
        !expect(TokenKind::RParen, "after parenthesized expression") ||
        !setHeight(Height + 1))
      return nullptr;
    auto *E = Ctx.create<ParenExpr>(Inner);
    E->setLoc(Loc);
    return E;
  }
  case TokenKind::Identifier: {
    std::string Name = consume().Text;

    // Kernel launch `name<<<...>>>(...)`.
    if (cur().is(TokenKind::LaunchBegin)) {
      consume();
      Expr *Grid = parseAssignment();
      if (!Grid || !expect(TokenKind::Comma, "after launch grid dimension"))
        return nullptr;
      unsigned MaxHeight = Height;
      Expr *Block = parseAssignment();
      if (!Block)
        return nullptr;
      MaxHeight = std::max(MaxHeight, Height);
      Expr *Smem = nullptr;
      Expr *Stream = nullptr;
      if (tryConsume(TokenKind::Comma)) {
        Smem = parseAssignment();
        if (!Smem)
          return nullptr;
        MaxHeight = std::max(MaxHeight, Height);
        if (tryConsume(TokenKind::Comma)) {
          Stream = parseAssignment();
          if (!Stream)
            return nullptr;
          MaxHeight = std::max(MaxHeight, Height);
        }
      }
      if (!expect(TokenKind::LaunchEnd, "after launch configuration"))
        return nullptr;
      if (!expect(TokenKind::LParen, "after '>>>'"))
        return nullptr;
      std::vector<Expr *> Args;
      if (!parseCallArgs(Args) || !setHeight(std::max(MaxHeight, Height) + 1))
        return nullptr;
      auto *E = Ctx.create<LaunchExpr>(std::move(Name), Grid, Block, Smem,
                                       Stream, std::move(Args));
      E->setLoc(Loc);
      return E;
    }

    auto *Ref = Ctx.create<DeclRefExpr>(Name);
    Ref->setLoc(Loc);
    return Ref;
  }
  default:
    error("expected expression, found " +
          std::string(tokenKindName(cur().Kind)));
    return nullptr;
  }
}

Expr *Parser::parsePostfix(Expr *Base) {
  // Each link of the chain nests the whole chain so far one level deeper.
  unsigned BaseHeight = Height;
  while (true) {
    switch (cur().Kind) {
    case TokenKind::LParen: {
      consume();
      std::vector<Expr *> Args;
      if (!parseCallArgs(Args))
        return nullptr;
      BaseHeight = std::max(BaseHeight, Height);
      Base = Ctx.create<CallExpr>(Base, std::move(Args));
      break;
    }
    case TokenKind::LBracket: {
      consume();
      Expr *Index = parseExpr();
      if (!Index || !expect(TokenKind::RBracket, "after subscript"))
        return nullptr;
      BaseHeight = std::max(BaseHeight, Height);
      Base = Ctx.create<ArraySubscriptExpr>(Base, Index);
      break;
    }
    case TokenKind::Period:
    case TokenKind::Arrow: {
      bool IsArrow = consume().is(TokenKind::Arrow);
      if (!cur().is(TokenKind::Identifier)) {
        error("expected member name");
        return nullptr;
      }
      std::string Member = consume().Text;
      Base = Ctx.create<MemberExpr>(Base, Member, IsArrow);
      break;
    }
    case TokenKind::PlusPlus: {
      consume();
      Base = Ctx.create<UnaryOperator>(UnaryOpKind::PostInc, Base);
      break;
    }
    case TokenKind::MinusMinus: {
      consume();
      Base = Ctx.create<UnaryOperator>(UnaryOpKind::PostDec, Base);
      break;
    }
    default:
      return Base;
    }
    if (!Base || !setHeight(BaseHeight + 1))
      return nullptr;
    BaseHeight = Height;
  }
}

Expr *Parser::parseUnary() {
  NestingScope Scope(*this);
  if (!Scope)
    return nullptr;
  SourceLocation Loc = cur().Loc;
  UnaryOpKind Op;
  switch (cur().Kind) {
  case TokenKind::Plus: Op = UnaryOpKind::Plus; break;
  case TokenKind::Minus: Op = UnaryOpKind::Minus; break;
  case TokenKind::Exclaim: Op = UnaryOpKind::Not; break;
  case TokenKind::Tilde: Op = UnaryOpKind::BitNot; break;
  case TokenKind::PlusPlus: Op = UnaryOpKind::PreInc; break;
  case TokenKind::MinusMinus: Op = UnaryOpKind::PreDec; break;
  case TokenKind::Star: Op = UnaryOpKind::Deref; break;
  case TokenKind::Amp: Op = UnaryOpKind::AddrOf; break;
  default: {
    Expr *Primary = parsePrimary();
    if (!Primary)
      return nullptr;
    return parsePostfix(Primary);
  }
  }
  consume();
  Expr *Operand = parseUnary();
  if (!Operand || !setHeight(Height + 1))
    return nullptr;
  auto *U = Ctx.create<UnaryOperator>(Op, Operand);
  U->setLoc(Loc);
  return U;
}

Expr *Parser::parseBinaryRHS(unsigned MinPrec, Expr *LHS) {
  // A left fold: each operator nests everything to its left one level
  // deeper, so the chain counts against the nesting limit.
  unsigned LHSHeight = Height;
  while (true) {
    unsigned Prec = tokenBinaryPrecedence(cur().Kind);
    if (Prec < MinPrec || Prec == 0)
      return LHS;
    TokenKind OpTok = consume().Kind;
    Expr *RHS = parseUnary();
    if (!RHS)
      return nullptr;
    unsigned NextPrec = tokenBinaryPrecedence(cur().Kind);
    if (NextPrec > Prec) {
      RHS = parseBinaryRHS(Prec + 1, RHS);
      if (!RHS)
        return nullptr;
    }
    if (!setHeight(std::max(LHSHeight, Height) + 1))
      return nullptr;
    LHSHeight = Height;
    BinaryOpKind Op = tokenToBinaryOp(OpTok);
    LHS = Ctx.create<BinaryOperator>(Op, LHS, RHS);
  }
}

Expr *Parser::parseConditional() {
  Expr *Cond = parseUnary();
  if (!Cond)
    return nullptr;
  Cond = parseBinaryRHS(/*MinPrec=*/4, Cond);
  if (!Cond)
    return nullptr;
  if (!tryConsume(TokenKind::Question))
    return Cond;
  unsigned MaxHeight = Height;
  NestingScope Scope(*this);
  if (!Scope)
    return nullptr;
  Expr *TrueExpr = parseAssignment();
  if (!TrueExpr || !expect(TokenKind::Colon, "in conditional expression"))
    return nullptr;
  MaxHeight = std::max(MaxHeight, Height);
  Expr *FalseExpr = parseConditional();
  if (!FalseExpr || !setHeight(std::max(MaxHeight, Height) + 1))
    return nullptr;
  return Ctx.create<ConditionalOperator>(Cond, TrueExpr, FalseExpr);
}

Expr *Parser::parseAssignment() {
  Expr *LHS = parseConditional();
  if (!LHS)
    return nullptr;
  switch (cur().Kind) {
  case TokenKind::Equal:
  case TokenKind::PlusEqual:
  case TokenKind::MinusEqual:
  case TokenKind::StarEqual:
  case TokenKind::SlashEqual:
  case TokenKind::PercentEqual:
  case TokenKind::LessLessEqual:
  case TokenKind::GreaterGreaterEqual:
  case TokenKind::AmpEqual:
  case TokenKind::PipeEqual:
  case TokenKind::CaretEqual: {
    unsigned LHSHeight = Height;
    BinaryOpKind Op = tokenToAssignOp(consume().Kind);
    NestingScope Scope(*this);
    if (!Scope)
      return nullptr;
    Expr *RHS = parseAssignment();
    if (!RHS || !setHeight(std::max(LHSHeight, Height) + 1))
      return nullptr;
    return Ctx.create<BinaryOperator>(Op, LHS, RHS);
  }
  default:
    return LHS;
  }
}

Expr *Parser::parseExpr() {
  Expr *LHS = parseAssignment();
  if (!LHS)
    return nullptr;
  // Comma chains fold left, like parseBinaryRHS.
  unsigned LHSHeight = Height;
  while (cur().is(TokenKind::Comma)) {
    consume();
    Expr *RHS = parseAssignment();
    if (!RHS || !setHeight(std::max(LHSHeight, Height) + 1))
      return nullptr;
    LHSHeight = Height;
    LHS = Ctx.create<BinaryOperator>(BinaryOpKind::Comma, LHS, RHS);
  }
  return LHS;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

TranslationUnit *dpo::parseSource(std::string_view Source, ASTContext &Ctx,
                                  DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Diags.hasErrors())
    return nullptr;
  Parser P(std::move(Tokens), Ctx, Diags);
  return P.parseTranslationUnit();
}

Expr *dpo::parseExprSource(std::string_view Source, ASTContext &Ctx,
                           DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Diags.hasErrors())
    return nullptr;
  Parser P(std::move(Tokens), Ctx, Diags);
  return P.parseStandaloneExpr();
}
