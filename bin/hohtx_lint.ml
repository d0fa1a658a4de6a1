(* hohtx_lint: source-level discipline checker for the transactional
   modules, run as [dune build @lint]. It enforces, syntactically, the
   contracts TxSan assumes at runtime:

   - [site-label]      every transaction entry point (Tm.atomic,
                       Tm.atomic_stamped, Hoh.apply, Hoh.apply_stamped,
                       Hoh.run) passes [~site], so abort attribution and
                       sanitizer reports can name the operation.
   - [raw-atomic]      no [Atomic.*] on record fields other than the
                       engine/metadata words [benign_atomic_fields] names:
                       tvar payloads must only be touched through [Tm].
   - [free-discipline] [Mempool.free] only runs deferred to a commit
                       ([Tm.defer] or a reclaimer's [~free] closure) —
                       after the window's revoke has been applied — or in
                       code that explicitly handles the no-transaction case
                       ([Tm.current_txn]).
   - [pool-alloc]      node records come from the pool ([Lnode.alloc] &c.),
                       never from a bare [Lnode.make]/[Dnode.make]/
                       [Snode.make]/[Tnode.make], which would bypass slot
                       shadow state and poisoning.

   Pure parsetree analysis (compiler-libs, no typing): rules are
   deliberately conservative so the clean tree reports nothing. Local
   module aliases ([module H = Hoh]) are resolved within the file so an
   alias cannot smuggle an unlabeled entry point past the check.

   Usage: hohtx_lint [--expect-violations N] [--json] FILE.ml...
   Exit status 1 if violations are found (or, with --expect-violations,
   if the count differs from N — the fixture self-test). Under
   GITHUB_ACTIONS, violations also print ::error workflow annotations.
   With --json, a hohtx-diag/1 document (the same schema hohtx_verify
   emits) is printed on stdout. *)

module Vdiag = Verify.Vdiag

let violations = ref 0
let annotate = ref false
let json = ref false
let collected : Vdiag.t list ref = ref []

let report ~loc ~rule msg =
  incr violations;
  let pos = loc.Location.loc_start in
  let file = pos.Lexing.pos_fname in
  let line = pos.Lexing.pos_lnum in
  let col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
  collected :=
    { Vdiag.rule; file; line; col; message = msg; path = []; fn = "" }
    :: !collected;
  if not !json then
    Printf.eprintf "%s:%d:%d: [%s] %s\n" file line col rule msg;
  if !annotate then
    Printf.printf "::error file=%s,line=%d,col=%d::[%s] %s\n" file line col
      rule msg

(* Local module aliases seen in the current file: "H" -> "Hoh". Filled
   per file before the rule walk; lookups chase alias-of-alias chains
   with a depth bound so a (pathological) cycle cannot hang the lint. *)
let module_aliases : (string, string) Hashtbl.t = Hashtbl.create 8

let resolve_mod m =
  let rec go depth m =
    if depth = 0 then m
    else
      match Hashtbl.find_opt module_aliases m with
      | Some m' when m' <> m -> go (depth - 1) m'
      | _ -> m
  in
  go 8 m

let rec last_mod = function
  | Longident.Lident m -> Some m
  | Longident.Ldot (_, m) -> Some m
  (* [F(X).v]: the functor head names the operation's module, not the
     argument — [H(X).apply] must still resolve through alias H. *)
  | Longident.Lapply (f, _) -> last_mod f

(* The module component right above the value, through local aliases:
   [Rr.Hoh.apply] -> "Hoh"; [module H = Hoh] makes [H.apply] -> "Hoh". *)
let parent_mod = function
  | Longident.Ldot (p, _) -> Option.map resolve_mod (last_mod p)
  | _ -> None

let lid_last = function
  | Longident.Lident s | Longident.Ldot (_, s) -> Some s
  | Longident.Lapply _ -> None

let is_txn_entry lid =
  match (parent_mod lid, lid_last lid) with
  | Some "Tm", Some ("atomic" | "atomic_stamped") -> true
  | Some "Hoh", Some ("apply" | "apply_stamped" | "run") -> true
  | _ -> false

let has_site args =
  List.exists
    (fun (lbl, _) ->
      match lbl with
      | Asttypes.Labelled "site" | Asttypes.Optional "site" -> true
      | _ -> false)
    args

let node_modules = [ "Lnode"; "Dnode"; "Snode"; "Tnode" ]

(* Known non-tvar atomics, scoped per source file (by basename) so a
   generic name like [head] or [epoch] appearing on some future record in
   payload code is NOT silently exempt — each entry whitelists exactly the
   engine/metadata words that one module owns: the service layer's
   shard-gate words and statistics counters and the reclaimers'
   epoch/hazard bookkeeping. The TM has no row: a tvar's lock word is
   field 0 of its record, reached through [lock_word], never as a field,
   and its payload is a plain field; a node's pool state word is reached
   the same way, through [state_word]. A raw [Atomic] field anywhere else
   must either go through [Tm] or earn its own row here. *)
let benign_atomic_fields =
  [ (* reclaimers: epoch announcements and backlog counters *)
    ( "epoch.ml",
      [ "global"; "announce"; "retired_total"; "backlog"; "max_backlog";
        "advances" ] );
    ("hazard.ml", [ "retired_total"; "backlog"; "max_backlog" ]);
    (* service shard gate and router statistics *)
    ( "service.ml",
      [ "word"; "readers"; "singles"; "batches"; "multis"; "multi_aborts";
        "recovered" ] );
    (* pool queue state, drain flag and stats *)
    ( "pool.ml",
      [ "head"; "tail"; "depth"; "max_depth"; "draining"; "c_done";
        "lag_ns"; "svc_p99_ns"; "shed_low"; "shed_high"; "deferred";
        "drained_reqs"; "drained_batches" ] );
    (* hot-key cache epochs and counters *)
    ( "hotcache.ml",
      [ "epoch"; "hits"; "misses"; "invalidations"; "last_write" ] ) ]

let is_benign_field ~file fld =
  match List.assoc_opt (Filename.basename file) benign_atomic_fields with
  | Some fields -> List.mem fld fields
  | None -> false

open Parsetree

(* [free_ok]: inside a [Tm.defer] callback or a [~free:] closure.
   [binding_ok]: the enclosing top-level binding inspects
   [Tm.current_txn], i.e. it handles the not-in-a-transaction case. *)
type ctx = { free_ok : bool; binding_ok : bool }

let rec check_expr ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args) ->
      if is_txn_entry lid && not (has_site args) then
        report ~loc:e.pexp_loc ~rule:"site-label"
          (Printf.sprintf "transaction entry %s without ~site"
             (String.concat "." (Longident.flatten lid)));
      (match (parent_mod lid, lid_last lid) with
      | Some "Atomic", Some fn when fn <> "make" -> (
          let first_plain =
            List.find_opt (fun (lbl, _) -> lbl = Asttypes.Nolabel) args
          in
          match first_plain with
          | Some (_, { pexp_desc = Pexp_field (_, { txt = fld; _ }); _ })
            when not
                   (match lid_last fld with
                   | Some f ->
                       is_benign_field
                         ~file:e.pexp_loc.Location.loc_start.Lexing.pos_fname
                         f
                   | None -> false) ->
              report ~loc:e.pexp_loc ~rule:"raw-atomic"
                (Printf.sprintf
                   "Atomic.%s on field %s: tvar payloads must go through Tm"
                   fn
                   (String.concat "." (Longident.flatten fld)))
          | _ -> ())
      | Some "Mempool", Some "free"
        when (not ctx.free_ok) && not ctx.binding_ok ->
          report ~loc:e.pexp_loc ~rule:"free-discipline"
            "Mempool.free outside Tm.defer / a ~free closure: the free \
             would race the window's revoke"
      | Some m, Some "make" when List.mem m node_modules ->
          report ~loc:e.pexp_loc ~rule:"pool-alloc"
            (Printf.sprintf
               "%s.make bypasses the pool; allocate with %s.alloc" m m)
      | _ -> ());
      let deferred =
        parent_mod lid = Some "Tm" && lid_last lid = Some "defer"
      in
      List.iter
        (fun (lbl, arg) ->
          let ctx =
            if deferred || lbl = Asttypes.Labelled "free" then
              { ctx with free_ok = true }
            else ctx
          in
          check_expr ctx arg)
        args
  | _ -> default_walk ctx e

and default_walk ctx e =
  (* Generic descent: visit every sub-expression with the current context.
     An [Ast_iterator] whose [expr] closes over a mutable ctx would lose
     the scoping on the way back up, hence the explicit recursion. *)
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ e -> check_expr ctx e);
    }
  in
  Ast_iterator.default_iterator.expr it e

(* Does this binding mention Tm.current_txn anywhere? *)
let mentions_current_txn vb =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = lid; _ }
            when lid_last lid = Some "current_txn" ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.value_binding it vb;
  !found

(* Pass 1: collect [module H = Path] aliases anywhere in the file (the
   table is keyed on the alias name only — a lint-grade approximation
   of scoping that errs toward reporting). *)
let collect_aliases str =
  Hashtbl.reset module_aliases;
  let note name lid =
    match last_mod lid with
    | Some target -> Hashtbl.replace module_aliases name target
    | None -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some name, Pmod_ident { txt = lid; _ } -> note name lid
          | _ -> ());
          Ast_iterator.default_iterator.module_binding self mb);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_letmodule
              ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt = lid; _ }; _ }, _)
            ->
              note name lid
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

let check_structure str =
  collect_aliases str;
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun _ vb ->
          let ctx =
            { free_ok = false; binding_ok = mentions_current_txn vb }
          in
          check_expr ctx vb.pvb_expr);
    }
  in
  it.structure it str

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

let () =
  let expect = ref (-1) in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--expect-violations" :: n :: rest ->
        expect := int_of_string n;
        parse_args rest
    | "--json" :: rest ->
        json := true;
        parse_args rest
    | f :: rest ->
        files := f :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  (* Workflow annotations only for the real check, not fixture self-tests. *)
  annotate := Sys.getenv_opt "GITHUB_ACTIONS" <> None && !expect < 0;
  List.iter
    (fun f ->
      match parse_file f with
      | str -> check_structure str
      | exception e ->
          incr violations;
          Printf.eprintf "%s: [parse] %s\n" f (Printexc.to_string e))
    (List.rev !files);
  if !json then
    print_endline
      (Vdiag.to_json ~tool:"hohtx_lint" ~alias:"@lint"
         (List.rev !collected) []);
  if !expect >= 0 then begin
    if !violations <> !expect then begin
      Printf.eprintf
        "hohtx_lint self-test: expected %d violations, found %d\n" !expect
        !violations;
      exit 1
    end
  end
  else if !violations > 0 then begin
    Printf.eprintf "hohtx_lint: %d violation(s)\n" !violations;
    exit 1
  end
