(* The flow-sensitive, interprocedural typestate analysis over .cmt
   typedtrees.

   Abstract state per node-typed binding:

     Fresh ── reserve ──▶ (obligation)      alloc'd, thread-private
     Shared               read from a tvar this window: deref OK (the
                          window's read-set validation protects it)
     Checked              Get returned Some (or an equality witness
                          against a checked node) this window
     Carried              a shared/checked value that crossed a window
                          boundary through an outer ref: deref is
                          deref-before-check until a new Get
     Retired              revoked/invalidated this window
     Freed                freed/disposed: deref is use-after-free

   Reservation obligations must be discharged on every exit path; branch
   joins keep an obligation alive if either side does and remember which
   branch kept it, so diagnostics can name the offending path. Exception
   edges are modelled by joining the environment at every (may-)raising
   point into the innermost handler. Reservations are transactional
   (they roll back with an abort), so only committing exits are charged
   for them.

   Everything is resolved through typedtree [Path.t]s and label
   descriptions — no [Longident] guessing. *)

open Typedtree

module IM = Map.Make (String)

(* compiler-libs no longer exposes integer stamps; [unique_name] ("x/1023")
   is unique within a compilation unit, which is all we key by *)
let stamp = Ident.unique_name

(* ---- paths and types ---- *)

let strip_prefix s =
  (* "Structs__Lnode" -> "Lnode"; dune's wrapping prefix is irrelevant to
     recognition. *)
  let n = String.length s in
  let rec last_sep i best =
    if i >= n - 1 then best
    else if s.[i] = '_' && s.[i + 1] = '_' then last_sep (i + 1) (i + 2)
    else last_sep (i + 1) best
  in
  let k = last_sep 0 0 in
  if k > 0 && k < n then String.sub s k (n - k) else s

(* The module aliases of the file under analysis ([module H = Rr.Hoh],
   [let module T = Tm in ...]), keyed by the alias's unique ident. A
   typedtree path names an alias as written ([H.apply]), so [path_parts]
   expands it to what it stands for, alias of an alias included. *)
let aliases : (string, Path.t) Hashtbl.t = Hashtbl.create 16

let collect_aliases (str : structure) =
  Hashtbl.reset aliases;
  let note id (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Hashtbl.replace aliases (stamp id) p
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          Option.iter (fun id -> note id mb.mb_expr) mb.mb_id;
          Tast_iterator.default_iterator.module_binding self mb);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_letmodule (Some id, _, _, me, _) -> note id me
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

let rec path_parts = function
  | Path.Pident id -> (
      match Hashtbl.find_opt aliases (stamp id) with
      | Some p -> path_parts p
      | None -> [ strip_prefix (Ident.name id) ])
  | Path.Pdot (p, s) -> path_parts p @ [ strip_prefix s ]
  | Path.Papply (f, _) -> path_parts f
  | Path.Pextra_ty (p, _) -> path_parts p

(* (parent module, name): [Rr.Hoh.apply] -> ("Hoh", "apply"). *)
let path_key p =
  match List.rev (path_parts p) with
  | name :: parent :: _ -> (parent, name)
  | [ name ] -> ("", name)
  | [] -> ("", "")

let node_modules = [ "Lnode"; "Dnode"; "Snode"; "Tnode" ]

let rec type_key ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> Some (path_key p, args)
  | Types.Tlink t | Types.Tsubst (t, _) -> type_key t
  | Types.Tpoly (t, _) -> type_key t
  | _ -> None

let rec node_of_type ty =
  (* [`Node m], [`Opt m] for [m.t option], or [`No]. A link is an
     [m.t Tm.tvar], so reading one yields [`Node m], which the code tests
     against [m.nil]; options remain for local values only (insert spares,
     the parent of a descent, the window engine's [~start]). *)
  match type_key ty with
  | Some ((m, "t"), _) when List.mem m node_modules -> `Node m
  | Some (("", "option"), [ a ]) | Some (("Stdlib", "option"), [ a ]) -> (
      match node_of_type a with `Node m -> `Opt m | _ -> `No)
  | _ -> `No

let is_txn_type ty =
  match type_key ty with Some (("Tm", "txn"), _) -> true | _ -> false

let is_ref_type ty =
  match type_key ty with
  | Some (("Stdlib", "ref"), _) | Some (("", "ref"), _) -> true
  | _ -> false

(* Record kinds recognized through label descriptions. *)
let record_kind (lbl : Types.label_description) =
  match type_key lbl.Types.lbl_res with
  | Some ((("Rr" | "Rr_intf"), "ops"), _) -> `Rr_ops
  | Some (("Mode", "t"), _) -> `Mode
  | Some ((m, "t"), _) when List.mem m node_modules -> `Node_record m
  | _ -> `Other

(* ---- abstract values ---- *)

type nstate =
  | Nbot
  | Nunknown
  | Fresh
  | Checked
  | Shared
  | Retired
  | Carried
  | Freed

let sev = function
  | Nbot -> 0
  | Nunknown -> 1
  | Fresh -> 2
  | Checked -> 3
  | Shared -> 4
  | Retired -> 5
  | Carried -> 6
  | Freed -> 7

let join_state a b = if sev a >= sev b then a else b

let state_name = function
  | Nbot -> "none"
  | Nunknown -> "unknown"
  | Fresh -> "fresh"
  | Checked -> "checked"
  | Shared -> "shared-read"
  | Retired -> "retired"
  | Carried -> "carried-unchecked"
  | Freed -> "freed"

(* Aging across a window boundary: a check or an in-window read does not
   survive into the next transaction; private and already-dead states do. *)
let age = function Shared | Checked -> Carried | s -> s

type prov = Pparam of int | Plocal

type aval =
  | Anode of nstate * prov
  | Awrap of nstate * prov  (* option / single-node constructor payload *)
  | Aref of string  (* tracked ref cell, by unique ident name *)
  | Atuple of aval list
  | Atxn
  | Acurtxn  (* result of Tm.current_txn *)
  | Abot  (* diverges *)
  | Aother

let join_prov a b = match (a, b) with Pparam i, Pparam j when i = j -> a | _ -> Plocal

let rec join_aval a b =
  match (a, b) with
  | Abot, x | x, Abot -> x
  | Anode (s1, p1), Anode (s2, p2) -> Anode (join_state s1 s2, join_prov p1 p2)
  | Awrap (s1, p1), Awrap (s2, p2) -> Awrap (join_state s1 s2, join_prov p1 p2)
  | (Anode _ as n), Awrap (s, p) | Awrap (s, p), (Anode _ as n) ->
      join_aval n (Anode (s, p))
  | Aref i, Aref j when i = j -> a
  | Atuple l1, Atuple l2 when List.length l1 = List.length l2 ->
      Atuple (List.map2 join_aval l1 l2)
  | Atxn, Atxn -> Atxn
  | Acurtxn, Acurtxn -> Acurtxn
  | _ -> Aother

(* ---- obligations ---- *)

type obl = {
  o_id : int;
  o_node : string option;  (* unique ident of the reserved node *)
  o_loc : Location.t;
  o_what : string;
  mutable o_trace : string list;  (* branch decisions that kept it alive *)
}

let obl_counter = ref 0

let fresh_obl ~node ~loc ~what =
  incr obl_counter;
  { o_id = !obl_counter; o_node = node; o_loc = loc; o_what = what;
    o_trace = [] }

(* ---- environments ---- *)

type rcell = { r_state : nstate; r_prov : prov; r_this_window : bool }

type env = {
  vals : aval IM.t;
  refs : rcell IM.t;
  obls : obl list;
}

let empty_env = { vals = IM.empty; refs = IM.empty; obls = [] }

let join_env ?left ?right e1 e2 =
  let tag side o =
    (match side with
    | Some lbl when not (List.mem lbl o.o_trace) ->
        o.o_trace <- lbl :: o.o_trace
    | _ -> ());
    o
  in
  let vals =
    IM.merge
      (fun _ a b ->
        match (a, b) with
        | Some a, Some b -> Some (join_aval a b)
        | Some a, None | None, Some a -> Some a
        | None, None -> None)
      e1.vals e2.vals
  in
  let refs =
    IM.merge
      (fun _ a b ->
        match (a, b) with
        | Some a, Some b ->
            Some
              {
                r_state = join_state a.r_state b.r_state;
                r_prov = join_prov a.r_prov b.r_prov;
                r_this_window = a.r_this_window && b.r_this_window;
              }
        | Some a, None | None, Some a -> Some a
        | None, None -> None)
      e1.refs e2.refs
  in
  let in_either =
    List.map
      (fun o ->
        if List.exists (fun o2 -> o2.o_id = o.o_id) e2.obls then o
        else tag left o)
      e1.obls
    @ List.filter_map
        (fun o ->
          if List.exists (fun o2 -> o2.o_id = o.o_id) e1.obls then None
          else Some (tag right o))
        e2.obls
  in
  { vals; refs; obls = in_either }

let set_val env id v = { env with vals = IM.add (stamp id) v env.vals }
let get_val env id = IM.find_opt (stamp id) env.vals

let discharge env ~node =
  {
    env with
    obls =
      List.filter
        (fun o ->
          match node with None -> false | Some s -> o.o_node <> Some s)
        env.obls;
  }

(* ---- diagnostics plumbing ---- *)

type out = {
  mutable diags : Vdiag.t list;
  mutable sups : Vdiag.suppression list;
  emit : bool;  (* final pass only *)
}

let loc_pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_fname, p.Lexing.pos_lnum,
   p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* ---- analysis context ---- *)

type exnacc = { mutable x_envs : env list; mutable x_traces : string list }

type ctx = {
  in_txn : bool;
  free_ok : bool;
  abort_cb : bool;
      (* inside a [Tm.on_abort] callback: a free is sanctioned only for a
         node this transaction allocated *)
  no_txn : bool;
  trusted : bool;
  fname : string;
  modname : string;
  trace : string list;  (* innermost first *)
  handler : exnacc option;  (* innermost enclosing try, if any *)
  summary : Vsummary.t;  (* row under construction for enclosing fn *)
  locals : (string, Vsummary.t) Hashtbl.t;  (* closures by unique ident *)
  ref_accum : (string, nstate * prov) Hashtbl.t;
      (* per-function: join of every state ever assigned to each outer
         ref, used as the entry content of the next window (fixpoint
         across the two module passes) *)
  out : out;
}

let report ctx ~loc ~rule msg =
  if ctx.trusted then ()
  else if ctx.out.emit then begin
    let file, line, col = loc_pos loc in
    ctx.out.diags <-
      {
        Vdiag.rule;
        file;
        line;
        col;
        message = msg;
        path = List.rev ctx.trace;
        fn = ctx.fname;
      }
      :: ctx.out.diags
  end

let push ctx lbl = { ctx with trace = lbl :: (match ctx.trace with l when List.length l >= 6 -> List.filteri (fun i _ -> i < 5) l | l -> l) }

let lline (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* [@hohtx.trusted "reason"] *)
let trusted_attr (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.Parsetree.attr_name.Location.txt = "hohtx.trusted" then
        Some
          (match a.Parsetree.attr_payload with
          | Parsetree.PStr
              [
                {
                  pstr_desc =
                    Pstr_eval
                      ( {
                          pexp_desc =
                            Pexp_constant (Pconst_string (s, _, _));
                          _;
                        },
                        _ );
                  _;
                };
              ] ->
              (a.Parsetree.attr_name.Location.loc, Some s)
          | _ -> (a.Parsetree.attr_name.Location.loc, None))
      else None)
    attrs

let enter_trusted ctx ~loc attrs =
  match trusted_attr attrs with
  | None -> ctx
  | Some (aloc, reason) ->
      let aloc = if aloc = Location.none then loc else aloc in
      if ctx.out.emit then begin
        let file, line, _ = loc_pos aloc in
        match reason with
        | Some r ->
            ctx.out.sups <-
              { Vdiag.s_file = file; s_line = line; reason = r }
              :: ctx.out.sups
        | None ->
            ctx.out.diags <-
              {
                Vdiag.rule = "trusted-without-reason";
                file;
                line;
                col = 0;
                message =
                  "[@hohtx.trusted] must carry a reason string explaining \
                   why the verifier is being waved through";
                path = [];
                fn = ctx.fname;
              }
              :: ctx.out.diags
      end;
      if reason <> None then { ctx with trusted = true } else ctx

(* may-raise bookkeeping: join the current env into the innermost
   handler. *)
let note_raise ctx env ~loc ~definite =
  match ctx.handler with
  | Some acc ->
      acc.x_envs <- env :: acc.x_envs;
      if definite then
        acc.x_traces <-
          Printf.sprintf "exception edge from line %d" (lline loc)
          :: acc.x_traces
  | None -> ()

(* A free that runs right away, not in a [Tm.defer] callback, a [~free]
   closure or a [Tm.current_txn] [None] branch: HV006 inside a
   transaction, and the summary bit that carries it to the callers. *)
let eager_free ctx ~loc msg =
  if not (ctx.free_ok || ctx.no_txn) then begin
    ctx.summary.Vsummary.eager_free <- true;
    if ctx.in_txn then report ctx ~loc ~rule:"non-deferred-free" msg
  end

(* An omitted [?site] is the ghost [None] the type checker fills in. *)
let omits_site args =
  List.exists
    (function
      | ( Asttypes.Optional "site",
          Some
            {
              exp_desc =
                Texp_construct (_, { Types.cstr_name = "None"; _ }, []);
              exp_loc;
              _;
            } ) ->
          exp_loc.Location.loc_ghost
      | _ -> false)
    args

(* ---- the expression interpreter ---- *)

let rec state_of_aval = function
  | Anode (s, _) | Awrap (s, _) -> s
  | Atuple l ->
      List.fold_left (fun acc v -> join_state acc (state_of_aval v)) Nbot l
  | _ -> Nbot

let prov_of_aval = function Anode (_, p) | Awrap (_, p) -> p | _ -> Plocal

(* [m.nil], the static end-of-links node of a node module: never
   allocated, never freed. *)
let is_nil (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match path_key p with
      | m, "nil" -> List.mem m node_modules
      | _ -> false)
  | _ -> false

(* The environments of the two branches of [if cond]: when [cond] tests a
   node binding against [m.nil] with [==] or [!=], the binding names
   [nil] in one branch. A carried or retired state does not apply to the
   static sentinel, so there the binding is reset to unknown. *)
let nil_branches env (cond : expression) =
  match cond.exp_desc with
  | Texp_apply
      ( { exp_desc = Texp_ident (op, _, _); _ },
        [ (_, Some a); (_, Some b) ] ) -> (
      let var =
        match (a.exp_desc, b.exp_desc) with
        | Texp_ident (Path.Pident id, _, _), _ when is_nil b -> Some id
        | _, Texp_ident (Path.Pident id, _, _) when is_nil a -> Some id
        | _ -> None
      in
      let as_nil id =
        let pr = Option.fold ~none:Plocal ~some:prov_of_aval (get_val env id) in
        set_val env id (Anode (Nunknown, pr))
      in
      match (path_key op, var) with
      | ("Stdlib", "=="), Some id -> (as_nil id, env)
      | ("Stdlib", "!="), Some id -> (env, as_nil id)
      | _ -> (env, env))
  | _ -> (env, env)

(* Record a per-param effect in the enclosing function's summary. *)
let on_param ctx prov f =
  match prov with
  | Pparam i -> (
      match Vsummary.param ctx.summary i with
      | Some pt -> f pt
      | None -> ())
  | Plocal -> ()

let rec bind_pattern :
    type k. ctx -> env -> k general_pattern -> aval -> env =
 fun ctx env pat v ->
  match pat.pat_desc with
  | Tpat_var (id, _) -> set_val env id v
  | Tpat_alias (p, id, _) -> bind_pattern ctx (set_val env id v) p v
  | Tpat_tuple ps -> (
      match v with
      | Atuple vs when List.length vs = List.length ps ->
          List.fold_left2 (bind_pattern ctx) env ps vs
      | _ ->
          List.fold_left (fun e p -> bind_pattern ctx e p Aother) env ps)
  | Tpat_construct (_, cd, args, _) -> (
      match (cd.Types.cstr_name, args, v) with
      | "Some", [ p ], (Awrap (s, pr) | Anode (s, pr)) ->
          bind_pattern ctx env p (Anode (s, pr))
      | "None", [], _ -> env
      | _, args, Awrap (s, pr) ->
          (* single-node constructor payload (e.g. [Unlink n]) *)
          List.fold_left
            (fun e (p : value general_pattern) ->
              match node_of_type p.pat_type with
              | `Node _ -> bind_pattern ctx e p (Anode (s, pr))
              | _ -> bind_pattern ctx e p Aother)
            env args
      | _ ->
          List.fold_left (fun e p -> bind_pattern ctx e p Aother) env args)
  | Tpat_value arg ->
      bind_pattern ctx env (arg :> value general_pattern) v
  | Tpat_exception p -> bind_pattern ctx env p Aother
  | Tpat_or (p1, p2, _) ->
      let e1 = bind_pattern ctx env p1 v in
      bind_pattern ctx e1 p2 v
  | Tpat_record (fields, _) ->
      List.fold_left
        (fun e (_, _, p) -> bind_pattern ctx e p Aother)
        env fields
  | Tpat_lazy p -> bind_pattern ctx env p Aother
  | Tpat_array ps ->
      List.fold_left (fun e p -> bind_pattern ctx e p Aother) env ps
  | Tpat_variant (_, Some p, _) -> bind_pattern ctx env p Aother
  | _ -> env

(* Deref check: [base.field] is being read/written (transactionally or
   not). *)
and check_deref ctx env ~loc base_aval =
  let s = state_of_aval base_aval in
  (match base_aval with
  | Anode (_, p) | Awrap (_, p) -> on_param ctx p (fun pt -> pt.derefs <- true)
  | _ -> ());
  match s with
  | Carried ->
      report ctx ~loc ~rule:"deref-before-check"
        "dereference of a pointer carried across a window boundary before \
         this window's reservation check (Get) has validated it"
  | Freed ->
      report ctx ~loc ~rule:"use-after-free"
        "dereference of a node that was already freed/disposed on this path"
  | _ -> ignore env

and analyze_expr ctx env (e : expression) : env * aval =
  let ctx = enter_trusted ctx ~loc:e.exp_loc e.exp_attributes in
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id -> (
          match get_val env id with
          | Some v -> (env, v)
          | None -> (env, aval_of_type e.exp_type))
      | _ -> (env, aval_of_type e.exp_type))
  | Texp_constant _ -> (env, Aother)
  | Texp_let (_, vbs, body) ->
      let env =
        List.fold_left
          (fun env (vb : value_binding) ->
            analyze_binding ctx env vb)
          env vbs
      in
      analyze_expr ctx env body
  | Texp_function _ ->
      (* an anonymous closure in value position: analyze its body (it may
         violate rules internally); callers treat it as opaque *)
      analyze_closure ctx env ~name:"<lambda>" e;
      (env, Aother)
  | Texp_apply (fn, args) -> analyze_apply ctx env e fn args
  | Texp_match (scrut, cases, _) -> analyze_match ctx env e scrut cases
  | Texp_try (body, cases) ->
      let acc = { x_envs = []; x_traces = [] } in
      let benv, bval =
        analyze_expr { ctx with handler = Some acc } env body
      in
      let hentry =
        List.fold_left join_env env acc.x_envs
      in
      let hctx =
        push ctx
          (match acc.x_traces with
          | t :: _ -> t
          | [] ->
              Printf.sprintf "exception edge into handler at line %d"
                (lline e.exp_loc))
      in
      let joined =
        List.fold_left
          (fun (accenv, accval) (c : value case) ->
            let henv = bind_pattern hctx hentry c.c_lhs Aother in
            let henv, hval = analyze_expr hctx henv c.c_rhs in
            match accenv with
            | None -> (Some henv, hval)
            | Some a -> (Some (join_env a henv), join_aval accval hval))
          (None, Abot) cases
      in
      (match joined with
      | Some henv, hval -> (join_env benv henv, join_aval bval hval)
      | None, _ -> (benv, bval))
  | Texp_tuple es ->
      let env, vs =
        List.fold_left
          (fun (env, acc) e ->
            let env, v = analyze_expr ctx env e in
            (env, v :: acc))
          (env, []) es
      in
      (env, Atuple (List.rev vs))
  | Texp_construct (_, cd, args) -> (
      let env, vs =
        List.fold_left
          (fun (env, acc) e ->
            let env, v = analyze_expr ctx env e in
            (env, v :: acc))
          (env, []) args
      in
      let vs = List.rev vs in
      match (cd.Types.cstr_name, vs) with
      | "Some", [ v ] -> (env, Awrap (state_of_aval v, prov_of_aval v))
      | "None", [] -> (env, Awrap (Nbot, Plocal))
      | "Hand_off", [ v ] ->
          (* the hand-over: the reservation obligation transfers with the
             committed reservation *)
          let env =
            match args with
            | [ { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ] ->
                discharge env ~node:(Some (stamp id))
            | _ -> discharge env ~node:None
          in
          (env, Awrap (state_of_aval v, prov_of_aval v))
      | _, vs
        when List.exists (fun v -> state_of_aval v <> Nbot) vs
             && List.length args = 1 ->
          (env, Awrap (state_of_aval (List.hd vs), prov_of_aval (List.hd vs)))
      | _ -> (env, Aother))
  | Texp_variant (_, Some arg) ->
      let env, _ = analyze_expr ctx env arg in
      (env, Aother)
  | Texp_variant (_, None) -> (env, Aother)
  | Texp_field (base, _, lbl) ->
      let env, bval = analyze_expr ctx env base in
      (match record_kind lbl with
      | `Node_record _ -> check_deref ctx env ~loc:e.exp_loc bval
      | _ -> ());
      (env, aval_of_type e.exp_type)
  | Texp_setfield (base, _, lbl, v) ->
      let env, bval = analyze_expr ctx env base in
      (match record_kind lbl with
      | `Node_record _ -> check_deref ctx env ~loc:e.exp_loc bval
      | _ -> ());
      let env, _ = analyze_expr ctx env v in
      (env, Aother)
  | Texp_ifthenelse (cond, ethen, eelse) -> (
      let env, _ = analyze_expr ctx env cond in
      let then_env, else_env = nil_branches env cond in
      let tctx = push ctx (Printf.sprintf "then-branch at line %d" (lline ethen.exp_loc)) in
      let tenv, tval = analyze_expr tctx then_env ethen in
      match eelse with
      | Some eelse ->
          let ectx = push ctx (Printf.sprintf "else-branch at line %d" (lline eelse.exp_loc)) in
          let eenv, eval_ = analyze_expr ectx else_env eelse in
          ( join_env
              ~left:(Printf.sprintf "then-branch at line %d" (lline ethen.exp_loc))
              ~right:(Printf.sprintf "else-branch at line %d" (lline eelse.exp_loc))
              tenv eenv,
            join_aval tval eval_ )
      | None ->
          ( join_env
              ~left:(Printf.sprintf "then-branch at line %d" (lline ethen.exp_loc))
              ~right:"fall-through else" tenv else_env,
            Aother ))
  | Texp_sequence (e1, e2) ->
      let env, _ = analyze_expr ctx env e1 in
      analyze_expr ctx env e2
  | Texp_while (cond, body) ->
      let env, _ = analyze_expr ctx env cond in
      let benv, _ = analyze_expr ctx env body in
      (join_env env benv, Aother)
  | Texp_for (id, _, lo, hi, _, body) ->
      let env, _ = analyze_expr ctx env lo in
      let env, _ = analyze_expr ctx env hi in
      let benv, _ = analyze_expr ctx (set_val env id Aother) body in
      (join_env env benv, Aother)
  | Texp_assert (e1, _) -> (
      match e1.exp_desc with
      | Texp_construct (_, { Types.cstr_name = "false"; _ }, []) ->
          note_raise ctx env ~loc:e.exp_loc ~definite:true;
          (env, Abot)
      | Texp_apply
          ( { exp_desc = Texp_ident (p, _, _); _ },
            [ (_, Some a1); (_, Some a2) ] )
        when (match path_key p with
             | m, "equal" when List.mem m node_modules -> true
             | _ -> false) ->
          (* assert (Lnode.equal s n): an equality witness against a
             checked node upgrades the other side (the dlist two-phase
             remove re-validates its carried target this way) *)
          let env, v1 = analyze_expr ctx env a1 in
          let env, v2 = analyze_expr ctx env a2 in
          let upgrade env src tgt targ =
            if state_of_aval src = Checked then begin
              (match targ.exp_desc with
              | Texp_ident (Path.Pident id, _, _) ->
                  on_param ctx (prov_of_aval tgt) (fun pt ->
                      pt.checks <- true);
                  set_val env id (Anode (Checked, prov_of_aval tgt))
              | _ -> env)
            end
            else env
          in
          let env = upgrade env v1 v2 a2 in
          let env = upgrade env v2 v1 a1 in
          (env, Aother)
      | _ ->
          let env, _ = analyze_expr ctx env e1 in
          (env, Aother))
  | Texp_lazy e1 ->
      let env, _ = analyze_expr ctx env e1 in
      (env, Aother)
  | Texp_record { fields; extended_expression; _ } ->
      let env =
        match extended_expression with
        | Some e1 -> fst (analyze_expr ctx env e1)
        | None -> env
      in
      let env =
        Array.fold_left
          (fun env (_, def) ->
            match def with
            | Overridden (_, e1) -> fst (analyze_expr ctx env e1)
            | Kept _ -> env)
          env fields
      in
      (env, Aother)
  | Texp_array es ->
      ( List.fold_left (fun env e1 -> fst (analyze_expr ctx env e1)) env es,
        Aother )
  | Texp_letmodule (_, _, _, _, body) -> analyze_expr ctx env body
  | Texp_open (_, body) -> analyze_expr ctx env body
  | Texp_letexception (_, body) -> analyze_expr ctx env body
  | _ -> (env, Aother)

and aval_of_type ty =
  match node_of_type ty with
  | `Node _ -> Anode (Nunknown, Plocal)
  | `Opt _ -> Awrap (Nunknown, Plocal)
  | `No -> if is_txn_type ty then Atxn else Aother

and analyze_binding ctx env (vb : value_binding) =
  let ctx = enter_trusted ctx ~loc:vb.vb_loc vb.vb_attributes in
  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
  | Tpat_var (id, _), Texp_function _ ->
      (* a local closure: compute its summary (twice, for recursion) and
         register it so calls advance the caller's typestate. The warm-up
         run is silenced — its diagnostics predate the closure's own
         summary and would be stale. *)
      let name = Ident.name id in
      let warm =
        { ctx with out = { diags = []; sups = []; emit = false } }
      in
      let s1 = analyze_lambda warm env ~name vb.vb_expr in
      Hashtbl.replace ctx.locals (stamp id) s1;
      let s2 = analyze_lambda ctx env ~name vb.vb_expr in
      Hashtbl.replace ctx.locals (stamp id) s2;
      env
  | ( Tpat_var (id, _),
      Texp_apply
        ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some init) ]) )
    when path_key p = ("Stdlib", "ref")
         && (match node_of_type init.exp_type with
            | `Node _ | `Opt _ -> true
            | `No -> false) ->
      (* [let cell = ref init] over nodes / node options: track the cell
         so reads inside later windows see the aged (carried) state *)
      let env, v = analyze_expr ctx env init in
      let stamp = stamp id in
      let st = state_of_aval v and pr = prov_of_aval v in
      (match Hashtbl.find_opt ctx.ref_accum stamp with
      | Some (s0, p0) ->
          Hashtbl.replace ctx.ref_accum stamp
            (join_state s0 st, join_prov p0 pr)
      | None -> Hashtbl.replace ctx.ref_accum stamp (st, pr));
      let env =
        {
          env with
          refs =
            IM.add stamp
              { r_state = st; r_prov = pr; r_this_window = true }
              env.refs;
        }
      in
      set_val env id (Aref stamp)
  | _ ->
      let env, v = analyze_expr ctx env vb.vb_expr in
      bind_pattern ctx env vb.vb_pat v

(* ---- matches ---- *)

and analyze_match ctx env e scrut (cases : computation case list) =
  let acc = { x_envs = []; x_traces = [] } in
  let has_exn_case =
    List.exists
      (fun (c : computation case) ->
        match c.c_lhs.pat_desc with
        | Tpat_exception _ -> true
        | Tpat_or ({ pat_desc = Tpat_exception _; _ }, _, _) -> true
        | _ -> false)
      cases
  in
  (* one scrutinee run, under the handler when an exception case exists:
     x_envs must snapshot the state at each raise point, not the
     post-success state — a callee's Get upgrade performed on the success
     path must not leak into the exception branch *)
  let pre_env = env in
  let scrut_ctx =
    if has_exn_case then { ctx with handler = Some acc } else ctx
  in
  let env, sval = analyze_expr scrut_ctx pre_env scrut in
  let branch (accenv, accval) (c : computation case) =
    let lbl =
      Printf.sprintf "match case at line %d" (lline c.c_rhs.exp_loc)
    in
    let bctx = push ctx lbl in
    (* refine: [match ops.get txn n with Some x] checks x (and n);
       [match Tm.current_txn () with None] enables bare frees *)
    let benv =
      match (sval, c.c_lhs.pat_desc) with
      | Acurtxn, Tpat_value arg -> (
          match (arg :> value general_pattern).pat_desc with
          | Tpat_construct (_, { Types.cstr_name = "None"; _ }, _, _) ->
              env
          | _ -> env)
      | _ -> env
    in
    let is_none_case =
      match c.c_lhs.pat_desc with
      | Tpat_value arg -> (
          match (arg :> value general_pattern).pat_desc with
          | Tpat_construct (_, { Types.cstr_name = "None"; _ }, _, _) ->
              true
          | _ -> false)
      | _ -> false
    in
    let bctx =
      if sval = Acurtxn && is_none_case then { bctx with no_txn = true }
      else bctx
    in
    let is_exn_case =
      match c.c_lhs.pat_desc with Tpat_exception _ -> true | _ -> false
    in
    (* exception cases enter with the raise-point envs (joined with the
       pre-scrutinee snapshot), never with the scrutinee's success state *)
    let benv =
      if is_exn_case then List.fold_left join_env pre_env acc.x_envs
      else benv
    in
    let benv = bind_pattern bctx benv c.c_lhs sval in
    let benv =
      match c.c_guard with
      | Some g -> fst (analyze_expr bctx benv g)
      | None -> benv
    in
    let bctx =
      if is_exn_case then
        push ctx (Printf.sprintf "exception case at line %d" (lline c.c_rhs.exp_loc))
      else bctx
    in
    let benv, bval = analyze_expr bctx benv c.c_rhs in
    match accenv with
    | None -> (Some benv, bval)
    | Some a -> (Some (join_env ~right:lbl a benv), join_aval accval bval)
  in
  match List.fold_left branch (None, Abot) cases with
  | Some benv, bval -> (benv, bval)
  | None, bval -> (env, bval)

(* ---- applications ---- *)

and analyze_args ctx env args =
  (* analyze non-function args left to right; lambdas are handled by the
     caller (they may need txn context) *)
  List.fold_left
    (fun (env, acc) (lbl, arg) ->
      match arg with
      | None -> (env, acc @ [ (lbl, None) ])
      | Some (a : expression) -> (
          match a.exp_desc with
          | Texp_function _ -> (env, acc @ [ (lbl, Some (a, Aother)) ])
          | _ ->
              let env, v = analyze_expr ctx env a in
              (env, acc @ [ (lbl, Some (a, v)) ])))
    (env, []) args

and node_arg args =
  (* last unlabelled argument that is a tracked node *)
  List.fold_left
    (fun acc (lbl, arg) ->
      match (lbl, arg) with
      | Asttypes.Nolabel, Some ((a : expression), v) -> (
          match node_of_type a.exp_type with
          | `Node _ | `Opt _ -> Some (a, v)
          | `No -> acc)
      | _ -> acc)
    None args

and ident_of (a : expression) =
  match a.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some (stamp id)
  | _ -> None

and set_node_state env (a : expression) st =
  match a.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      match get_val env id with
      | Some (Anode (_, p)) -> set_val env id (Anode (st, p))
      | Some (Awrap (_, p)) -> set_val env id (Awrap (st, p))
      | _ -> set_val env id (Anode (st, Plocal)))
  | _ -> env

and analyze_lambda_args ctx env args =
  (* analyze lambda args that were deferred by [analyze_args], in plain
     context (used when the callee is unknown); a [~free] closure is a
     reclaimer's deferred free, so frees are sanctioned inside it *)
  List.iter
    (fun (lbl, arg) ->
      match arg with
      | Some ((a : expression), _) -> (
          match a.exp_desc with
          | Texp_function _ ->
              let ctx =
                if lbl = Asttypes.Labelled "free" then
                  { ctx with free_ok = true }
                else ctx
              in
              analyze_closure ctx env ~name:"<lambda>" a
          | _ -> ())
      | None -> ())
    args

(* An anonymous closure may run as soon as it is built, so its eager
   frees count as the enclosing function's. *)
and analyze_closure ?start_checked ?window_entry ctx env ~name e =
  let s = analyze_lambda ?start_checked ?window_entry ctx env ~name e in
  if s.Vsummary.eager_free then ctx.summary.Vsummary.eager_free <- true

and analyze_apply ctx env (e : expression) fn args =
  match fn.exp_desc with
  | Texp_field (base, _, lbl) -> (
      let env, bval = analyze_expr ctx env base in
      ignore bval;
      let env, args = analyze_args ctx env args in
      match (record_kind lbl, lbl.Types.lbl_name) with
      | `Rr_ops, op -> apply_rr_op ctx env e op args
      | `Mode, ("invalidate" | "dispose") ->
          apply_mode_op ctx env e lbl.Types.lbl_name args
      | _ ->
          analyze_lambda_args ctx env args;
          note_raise ctx env ~loc:e.exp_loc ~definite:false;
          (env, aval_of_type e.exp_type))
  | Texp_ident (p, _, _) -> apply_path ctx env e p args
  | _ ->
      let env, _ = analyze_expr ctx env fn in
      let env, args = analyze_args ctx env args in
      analyze_lambda_args ctx env args;
      note_raise ctx env ~loc:e.exp_loc ~definite:false;
      (env, aval_of_type e.exp_type)

and apply_rr_op ctx env e op args =
  let loc = e.exp_loc in
  match (op, node_arg args) with
  | "reserve", Some (a, v) ->
      on_param ctx (prov_of_aval v) (fun pt -> pt.reserves <- true);
      let env =
        match (prov_of_aval v, ident_of a) with
        | Pparam _, _ ->
            (* reserving a caller-supplied node: the obligation is the
               caller's (recorded in the effect row) *)
            env
        | Plocal, node ->
            {
              env with
              obls =
                fresh_obl ~node ~loc ~what:"reservation" :: env.obls;
            }
      in
      (env, Aother)
  | "release", node -> (
      match node with
      | Some (a, v) ->
          on_param ctx (prov_of_aval v) (fun pt -> pt.releases <- true);
          (discharge env ~node:(ident_of a), Aother)
      | None -> (discharge env ~node:None, Aother))
  | "release_all", _ ->
      ctx.summary.Vsummary.releases_all <- true;
      (discharge env ~node:None, Aother)
  | "get", Some (a, v) ->
      on_param ctx (prov_of_aval v) (fun pt -> pt.checks <- true);
      let env = set_node_state env a Checked in
      (env, Awrap (Checked, prov_of_aval v))
  | "revoke", Some (a, v) ->
      on_param ctx (prov_of_aval v) (fun pt -> pt.revokes <- true);
      if state_of_aval v = Retired then
        report ctx ~loc ~rule:"double-revoke"
          "this node was already revoked/invalidated on this path";
      let env = discharge env ~node:(ident_of a) in
      (set_node_state env a Retired, Aother)
  | _ -> (env, Aother)

and apply_mode_op ctx env e op args =
  let loc = e.exp_loc in
  match (op, node_arg args) with
  | "invalidate", Some (a, v) ->
      on_param ctx (prov_of_aval v) (fun pt -> pt.revokes <- true);
      if state_of_aval v = Retired then
        report ctx ~loc ~rule:"double-revoke"
          "this node was already revoked/invalidated on this path";
      let env = discharge env ~node:(ident_of a) in
      (set_node_state env a Retired, Aother)
  | "dispose", Some (a, v) ->
      on_param ctx (prov_of_aval v) (fun pt ->
          pt.frees <- true;
          pt.requires_retired <- true);
      (match state_of_aval v with
      | Retired | Nunknown | Nbot | Fresh -> ()
      | Freed ->
          report ctx ~loc ~rule:"use-after-free"
            "this node was already freed/disposed on this path"
      | Shared | Checked | Carried ->
          report ctx ~loc ~rule:"free-under-live-reservation"
            "dispose without a prior revoke/invalidate: concurrent \
             reservations on this node may still be live when it is \
             reclaimed");
      (set_node_state env a Freed, Aother)
  | _ -> (env, Aother)

and free_checks ctx env ~loc (a : expression) v =
  on_param ctx (prov_of_aval v) (fun pt -> pt.frees <- true);
  let stamp = ident_of a in
  if
    List.exists
      (fun o -> o.o_node <> None && o.o_node = stamp)
      env.obls
  then
    report ctx ~loc ~rule:"free-under-live-reservation"
      "this function still holds a reservation on the node it is freeing";
  (match state_of_aval v with
  | Shared | Checked | Carried ->
      report ctx ~loc ~rule:"free-under-live-reservation"
        "freeing a shared node that was never revoked: concurrent \
         reservations may still protect it"
  | Freed ->
      report ctx ~loc ~rule:"use-after-free"
        "this node was already freed on this path"
  | _ -> ());
  set_node_state env a Freed

and apply_path ctx env (e : expression) p args =
  let loc = e.exp_loc in
  let key = path_key p in
  (* local closure? *)
  let local_summary =
    match p with
    | Path.Pident id -> Hashtbl.find_opt ctx.locals (stamp id)
    | _ -> None
  in
  match (key, local_summary) with
  | ("Stdlib", "ref"), None ->
      (* untracked [ref] in expression position; node-carrying refs are
         recognized at their let binding (see [analyze_binding]) *)
      let env, _ = analyze_args ctx env args in
      (env, Aother)
  | ("Stdlib", "!"), None -> (
      let env, args = analyze_args ctx env args in
      match args with
      | [ (_, Some (_, Aref r)) ] -> (
          match IM.find_opt r env.refs with
          | Some c ->
              let st =
                if ctx.in_txn && not c.r_this_window then age c.r_state
                else c.r_state
              in
              (env, Awrap (st, c.r_prov))
          | None -> (env, Aother))
      | _ -> (env, Aother))
  | ("Stdlib", ":="), None -> (
      let env, args = analyze_args ctx env args in
      match args with
      | [ (_, Some (_, Aref r)); (_, Some (_, v)) ] ->
          let st = state_of_aval v and pr = prov_of_aval v in
          (match Hashtbl.find_opt ctx.ref_accum r with
          | Some (s0, p0) ->
              Hashtbl.replace ctx.ref_accum r
                (join_state s0 st, join_prov p0 pr)
          | None -> Hashtbl.replace ctx.ref_accum r (st, pr));
          ( {
              env with
              refs =
                IM.add r
                  { r_state = st; r_prov = pr; r_this_window = true }
                  env.refs;
            },
            Aother )
      | _ -> (env, Aother))
  | ( ( ("Stdlib", ("raise" | "raise_notrace" | "failwith" | "invalid_arg"))
      | ("", ("raise" | "raise_notrace" | "failwith" | "invalid_arg")) ),
      None ) ->
      let env, _ = analyze_args ctx env args in
      ctx.summary.Vsummary.may_raise <- true;
      note_raise ctx env ~loc ~definite:true;
      (env, Abot)
  | ((m, "alloc"), None) when m = "Mempool" || List.mem m node_modules ->
      let env, _ = analyze_args ctx env args in
      if node_of_type e.exp_type <> `No then (env, Anode (Fresh, Plocal))
      else (env, Aother)
  | (("Mempool", "free"), None) when ctx.abort_cb -> (
      (* The aborted attempt never published a node it allocated, so the
         abort may return it; any other node may still be reachable. *)
      let env, args = analyze_args ctx env args in
      match node_arg args with
      | Some (a, v) ->
          if state_of_aval v <> Fresh then
            report ctx ~loc ~rule:"non-deferred-free"
              (Printf.sprintf
                 "Mempool.free in a Tm.on_abort callback of a %s node: an \
                  abort may return only a node its transaction allocated"
                 (state_name (state_of_aval v)));
          (set_node_state env a Freed, Aother)
      | None -> (env, Aother))
  | (("Mempool", "free"), None) -> (
      let env, args = analyze_args ctx env args in
      eager_free ctx ~loc
        "Mempool.free inside a transaction without Tm.defer / a ~free \
         closure: the free races the window's revoke";
      match node_arg args with
      | Some (a, v) -> (free_checks ctx env ~loc a v, Aother)
      | None -> (env, Aother))
  | (("Tm", ("read" | "write")), None) ->
      let env, args = analyze_args ctx env args in
      (* the tvar argument: a field of a node record? *)
      List.iter
        (fun (_, arg) ->
          match arg with
          | Some ((a : expression), _) -> (
              match a.exp_desc with
              | Texp_field (base, _, lbl) -> (
                  match record_kind lbl with
                  | `Node_record _ -> (
                      match base.exp_desc with
                      | Texp_ident (Path.Pident id, _, _) -> (
                          match get_val env id with
                          | Some bv -> check_deref ctx env ~loc bv
                          | None -> ())
                      | _ -> ())
                  | _ -> ())
              | _ -> ())
          | None -> ())
        args;
      if snd key = "read" then
        match node_of_type e.exp_type with
        | `Node _ -> (env, Anode (Shared, Plocal))
        | `Opt _ -> (env, Awrap (Shared, Plocal))
        | `No -> (env, Aother)
      else (env, Aother)
  | (("Tm", ("peek" | "poke")), None) ->
      let env, args = analyze_args ctx env args in
      List.iter
        (fun (_, arg) ->
          match arg with
          | Some ((a : expression), _) -> (
              match a.exp_desc with
              | Texp_field (base, _, lbl) -> (
                  match record_kind lbl with
                  | `Node_record _ -> (
                      match base.exp_desc with
                      | Texp_ident (Path.Pident id, _, _) -> (
                          match get_val env id with
                          | Some bv -> (
                              match state_of_aval bv with
                              | Freed ->
                                  report ctx ~loc ~rule:"use-after-free"
                                    "non-transactional access to a freed \
                                     node"
                              | (Shared | Checked | Carried | Retired)
                                when ctx.in_txn ->
                                  report ctx ~loc ~rule:"raw-access"
                                    (Printf.sprintf
                                       "Tm.%s on a %s node's payload \
                                        inside a transaction bypasses the \
                                        TM (no version check, no \
                                        validation)"
                                       (snd key)
                                       (state_name (state_of_aval bv)))
                              | _ -> ())
                          | None -> ())
                      | _ -> ())
                  | _ -> ())
              | _ -> ())
          | None -> ())
        args;
      (env, if snd key = "peek" then aval_of_type e.exp_type else Aother)
  | (("Tnode", "set_key"), None) ->
      (* A tree key is a plain field, validated only by the version bumps
         that precede its one store on a node no thread can reach. *)
      let env, args = analyze_args ctx env args in
      (match node_arg args with
      | Some (_, v) -> (
          match state_of_aval v with
          | Freed ->
              report ctx ~loc ~rule:"use-after-free"
                "Tnode.set_key on a freed node"
          | (Shared | Checked | Carried | Retired) as st ->
              report ctx ~loc ~rule:"raw-access"
                (Printf.sprintf
                   "Tnode.set_key on a %s node: a key may be set only on a \
                    node no other thread can reach (a fresh spare), or a \
                    reader pairs the new key with the node's old place"
                   (state_name st))
          | _ -> ())
      | None -> ());
      (env, Aother)
  | (("Tm", ("defer" | "on_abort")), None) ->
      let abort_cb = snd key = "on_abort" in
      let env, args = analyze_args ctx env args in
      List.iter
        (fun (_, arg) ->
          match arg with
          | Some ((a : expression), _) -> (
              match a.exp_desc with
              | Texp_function _ ->
                  (* defer bodies run right after commit, on_abort bodies
                     once the attempt is discarded: both outside the
                     transaction, with frees sanctioned (on_abort's only
                     of the transaction's own allocations) *)
                  ignore
                    (analyze_lambda
                       { ctx with in_txn = false; free_ok = true; abort_cb }
                       env
                       ~name:(if abort_cb then "<on_abort>" else "<defer>")
                       a)
              | _ -> ())
          | None -> ())
        args;
      (env, Aother)
  | (("Tm", ("atomic" | "atomic_stamped")), None)
  | (("Hoh", ("apply" | "apply_stamped" | "run")), None) ->
      let is_hoh = fst key = "Hoh" in
      if omits_site args then
        report ctx ~loc ~rule:"site-label"
          (Printf.sprintf
             "%s without ~site: its aborts and sanitizer reports cannot \
              name the operation"
             (String.concat "." (path_parts p)));
      let env, args = analyze_args ctx env args in
      List.iter
        (fun (_, arg) ->
          match arg with
          | Some ((a : expression), _) -> (
              match a.exp_desc with
              | Texp_function _ ->
                  analyze_closure
                    {
                      ctx with
                      in_txn = true;
                      free_ok = false;
                      abort_cb = false;
                    }
                    env
                    ~name:(if is_hoh then "<step>" else "<atomic>")
                    ~start_checked:is_hoh ~window_entry:true a
              | _ -> ())
          | None -> ())
        args;
      (env, aval_of_type e.exp_type)
  | (("Tm", "current_txn"), None) ->
      let env, _ = analyze_args ctx env args in
      (env, Acurtxn)
  | _ -> (
      let env, aargs = analyze_args ctx env args in
      (* known summary? module-level first, then local closures *)
      let summary =
        match local_summary with
        | Some s -> Some s
        | None -> (
            match Vsummary.lookup ~modname:(fst key) ~name:(snd key) with
            | Some s -> Some s
            | None -> Vsummary.lookup ~modname:ctx.modname ~name:(snd key))
      in
      match summary with
      | Some s -> apply_summary ctx env e s aargs
      | None ->
          analyze_lambda_args ctx env aargs;
          note_raise ctx env ~loc ~definite:false;
          (env, aval_of_type e.exp_type))

and apply_summary ctx env (e : expression) (s : Vsummary.t) args =
  let loc = e.exp_loc in
  analyze_lambda_args ctx env args;
  if s.Vsummary.may_raise then begin
    ctx.summary.Vsummary.may_raise <- true;
    note_raise ctx env ~loc ~definite:false
  end;
  (* the callee's effects are the caller's effects: a recursive retry
     loop that releases through a helper must itself count as releasing *)
  if s.Vsummary.releases_all then ctx.summary.Vsummary.releases_all <- true;
  if s.Vsummary.eager_free then
    eager_free ctx ~loc
      "this call runs Mempool.free outside Tm.defer / a ~free closure \
       (possibly further down its callees) inside a transaction: the free \
       races the window's revoke";
  let env = if s.Vsummary.releases_all then discharge env ~node:None else env in
  (* positional node params: walk provided args in order, matching the
     callee's rows in order of node-typed arguments *)
  let idx = ref (-1) in
  let env = ref env in
  List.iter
    (fun (_, arg) ->
      match arg with
      | Some ((a : expression), v)
        when (match node_of_type a.exp_type with
             | `No -> false
             | _ -> true) -> (
          incr idx;
          match nth_node_param s !idx with
          | None -> ()
          | Some pt ->
              let st = state_of_aval v in
              if pt.Vsummary.derefs && not pt.Vsummary.checks then begin
                match st with
                | Carried ->
                    report ctx ~loc ~rule:"deref-before-check"
                      "this call dereferences its argument, but the \
                       carried pointer has not been re-checked in this \
                       window"
                | Freed ->
                    report ctx ~loc ~rule:"use-after-free"
                      "this call dereferences its argument, which was \
                       already freed on this path"
                | _ -> ()
              end;
              if pt.Vsummary.checks then
                env := set_node_state !env a Checked;
              if pt.Vsummary.revokes then begin
                if st = Retired then
                  report ctx ~loc ~rule:"double-revoke"
                    "the callee revokes/invalidates this node, which was \
                     already revoked on this path";
                env := discharge !env ~node:(ident_of a);
                env := set_node_state !env a Retired
              end;
              if pt.Vsummary.frees then begin
                let st' =
                  match ident_of a with
                  | Some id -> (
                      match IM.find_opt id !env.vals with
                      | Some v -> state_of_aval v
                      | None -> st)
                  | None -> st
                in
                (if pt.Vsummary.requires_retired then
                   match st' with
                   | Shared | Checked | Carried ->
                       report ctx ~loc
                         ~rule:"free-under-live-reservation"
                         "the callee disposes this node, but it was never \
                          revoked/invalidated on this path"
                   | Freed ->
                       report ctx ~loc ~rule:"use-after-free"
                         "the callee frees this node, which was already \
                          freed on this path"
                   | _ -> ());
                env := set_node_state !env a Freed
              end;
              if pt.Vsummary.reserves then
                env :=
                  {
                    !env with
                    obls =
                      fresh_obl ~node:(ident_of a) ~loc
                        ~what:"reservation (via callee)"
                      :: !env.obls;
                  };
              if pt.Vsummary.releases then
                env := discharge !env ~node:(ident_of a))
      | _ -> ())
    args;
  (* result *)
  let ret =
    if s.Vsummary.ret_sources = [] then aval_of_type e.exp_type
    else
      let st =
        List.fold_left
          (fun acc src ->
            match src with
            | Vsummary.Sfresh -> join_state acc Fresh
            | Vsummary.Sshared -> join_state acc Shared
            | Vsummary.Sparam i -> (
                (* state of the i-th node argument *after* the callee's
                   effects: a helper that checks and returns its parameter
                   must yield a Checked result, not the stale pre-call
                   (possibly Carried) state from the argument list *)
                let cur = ref (-1) in
                let st = ref Nunknown in
                List.iter
                  (fun (_, arg) ->
                    match arg with
                    | Some ((a : expression), v) -> (
                        match node_of_type a.exp_type with
                        | `Node _ | `Opt _ ->
                            incr cur;
                            if !cur = i then
                              st :=
                                (match ident_of a with
                                | Some id -> (
                                    match IM.find_opt id !env.vals with
                                    | Some pv -> state_of_aval pv
                                    | None -> state_of_aval v)
                                | None -> (
                                    (* non-ident argument: the env holds no
                                       binding to read back, so apply the
                                       row's upgrade directly *)
                                    match Vsummary.param s i with
                                    | Some pt when pt.Vsummary.checks ->
                                        Checked
                                    | _ -> state_of_aval v))
                        | `No -> ())
                    | None -> ())
                  args;
                join_state acc !st))
          Nbot s.Vsummary.ret_sources
      in
      match node_of_type e.exp_type with
      | `Node _ -> Anode (st, Plocal)
      | `Opt _ -> Awrap (st, Plocal)
      | `No -> Aother
  in
  (!env, ret)

and nth_node_param (s : Vsummary.t) i = Vsummary.param s i

(* ---- functions ---- *)

(* Collect the parameter chain of a [Texp_function] nest. *)
and collect_params (e : expression) =
  match e.exp_desc with
  | Texp_function { arg_label; param; cases = [ c ]; _ } -> (
      match c.c_lhs.pat_desc with
      | Tpat_var _ | Tpat_alias _ | Tpat_any | Tpat_tuple _
      | Tpat_construct _ | Tpat_record _ ->
          let rest, body = collect_params c.c_rhs in
          ((arg_label, param, c.c_lhs, c.c_lhs.pat_type) :: rest, body)
      | _ -> ([], e))
  | _ -> ([], e)

and analyze_lambda ?(start_checked = false) ?(window_entry = false) ctx env
    ~name (e : expression) : Vsummary.t =
  let params, body = collect_params e in
  if params = [] then begin
    (* multi-case function: treat as single param + match *)
    match e.exp_desc with
    | Texp_function { cases; param; _ } ->
        let summary = Vsummary.create ~arity:1 in
        let fctx =
          {
            ctx with
            fname = name;
            summary;
            handler = None;
          }
        in
        ignore param;
        let entry = List.map (fun o -> o.o_id) env.obls in
        List.iter
          (fun (c : value case) ->
            let benv = bind_pattern fctx env c.c_lhs Aother in
            let benv, _ = analyze_expr fctx benv c.c_rhs in
            check_exits ~entry fctx benv)
          cases;
        summary
    | _ -> Vsummary.create ~arity:0
  end
  else begin
    let entry_obls = env.obls in
    let has_txn_param =
      List.exists (fun (_, _, _, ty) -> is_txn_type ty) params
    in
    let summary = Vsummary.create ~arity:(count_node_params params) in
    (* window boundary: entering a transaction body ages every ref
       assigned elsewhere in the enclosing function to its
       across-windows state *)
    let env =
      if window_entry || has_txn_param then
        {
          env with
          refs =
            IM.mapi
              (fun r c ->
                match Hashtbl.find_opt ctx.ref_accum r with
                | Some (s0, p0) ->
                    {
                      r_state = join_state c.r_state s0;
                      r_prov = join_prov c.r_prov p0;
                      r_this_window = false;
                    }
                | None -> { c with r_this_window = false })
              env.refs;
        }
      else env
    in
    let fctx =
      {
        ctx with
        fname = name;
        summary;
        handler = None;
        in_txn = ctx.in_txn || has_txn_param;
      }
    in
    (* bind parameters *)
    let nidx = ref (-1) in
    let env, _ =
      List.fold_left
        (fun (env, i) (lbl, _, pat, ty) ->
          let v =
            match node_of_type ty with
            | `Node _ ->
                incr nidx;
                Anode (Nunknown, Pparam !nidx)
            | `Opt _ ->
                incr nidx;
                let st =
                  if
                    start_checked
                    && (match lbl with
                       | Asttypes.Labelled "start"
                       | Asttypes.Optional "start" ->
                           true
                       | _ -> i = 1 (* second param of a step *))
                  then Checked
                  else Nunknown
                in
                Awrap (st, Pparam !nidx)
            | `No ->
                if is_txn_type ty then Atxn
                else if is_ref_type ty then Aother
                else Aother
          in
          (bind_pattern fctx env pat v, i + 1))
        (env, 0) params
    in
    let env, ret = analyze_expr fctx env body in
    (* return sources *)
    (match ret with
    | Anode (st, pr) | Awrap (st, pr) ->
        (match pr with
        | Pparam i -> Vsummary.add_ret_source summary (Vsummary.Sparam i)
        | Plocal -> (
            match st with
            | Fresh -> Vsummary.add_ret_source summary Vsummary.Sfresh
            | Shared | Checked | Carried ->
                Vsummary.add_ret_source summary Vsummary.Sshared
            | _ -> ()))
    | _ -> ());
    check_exits ~entry:(List.map (fun o -> o.o_id) entry_obls) fctx env;
    summary
  end

and count_node_params params =
  List.length
    (List.filter
       (fun (_, _, _, ty) ->
         match node_of_type ty with `Node _ | `Opt _ -> true | `No -> false)
       params)

(* Obligations must be discharged on every committing exit path. Only
   obligations the function itself acquired are its to discharge — a
   closure (defer body, retry step) may legitimately run while its
   enclosing scope still holds a reservation. *)
and check_exits ?(entry = []) ctx env =
  List.iter
    (fun o ->
      if List.mem o.o_id entry then ()
      else
        let ctx =
          List.fold_left (fun c t -> push c t) ctx (List.rev o.o_trace)
        in
        report ctx ~loc:o.o_loc ~rule:"reservation-leak"
          (Printf.sprintf
             "%s acquired here is neither released, revoked, nor handed \
              over on some exit path of %s"
             o.o_what ctx.fname))
    env.obls

