(* Driver: load .cmt typedtrees, compute bottom-up summaries, then run
   the diagnostic pass.

   Files may come in any order. Silent summary passes repeat until
   neither the summary table nor any per-file [ref_accum] table changes,
   so a callee's row reaches its callers however many files and calls
   lie between them, and recursion settles, before anything is reported.
   The [ref_accum] tables persist across passes, which is what lets a
   window entry age a ref cell by the join of every assignment anywhere
   in the enclosing function, not just the ones already seen. *)

open Typedtree

(* re-export the analysis modules through the library's main module *)
module Vdiag = Vdiag
module Vsarif = Vsarif
module Vsummary = Vsummary
module Vanalyze = Vanalyze

type file = {
  f_path : string;
  f_modname : string;
  f_structure : structure;
  f_ref_accum : (string, Vanalyze.nstate * Vanalyze.prov) Hashtbl.t;
}

let load_cmt path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
      Some
        {
          f_path = path;
          f_modname = Vanalyze.strip_prefix cmt.Cmt_format.cmt_modname;
          f_structure = str;
          f_ref_accum = Hashtbl.create 16;
        }
  | _ -> None

let mk_ctx ~modname ~ref_accum ~out : Vanalyze.ctx =
  {
    Vanalyze.in_txn = false;
    free_ok = false;
    abort_cb = false;
    no_txn = false;
    trusted = false;
    fname = "";
    modname;
    trace = [];
    handler = None;
    summary = Vsummary.create ~arity:0;
    locals = Hashtbl.create 32;
    ref_accum;
    out;
  }

let rec analyze_module_expr ctx env (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> analyze_structure ctx env str
  | Tmod_constraint (me, _, _, _) -> analyze_module_expr ctx env me
  | Tmod_functor (_, me) -> analyze_module_expr ctx env me
  | _ -> env

and analyze_structure ctx env (str : structure) =
  List.fold_left (analyze_item ctx) env str.str_items

and analyze_item ctx env (item : structure_item) =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
      List.fold_left
        (fun env (vb : value_binding) ->
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), Texp_function _ ->
              let name = Ident.name id in
              let ctx =
                Vanalyze.enter_trusted
                  { ctx with Vanalyze.fname = name }
                  ~loc:vb.vb_loc vb.vb_attributes
              in
              let s = Vanalyze.analyze_lambda ctx env ~name vb.vb_expr in
              Vsummary.record ~modname:ctx.Vanalyze.modname ~name s;
              env
          | _ -> Vanalyze.analyze_binding ctx env vb)
        env vbs
  | Tstr_module mb -> analyze_module_binding ctx env mb
  | Tstr_recmodule mbs ->
      List.fold_left (analyze_module_binding ctx) env mbs
  | Tstr_eval (e, _) -> fst (Vanalyze.analyze_expr ctx env e)
  | _ -> env

and analyze_module_binding ctx env (mb : module_binding) =
  let sub =
    match mb.mb_id with
    | Some id -> Ident.name id
    | None -> ctx.Vanalyze.modname
  in
  (* inner module: its bindings key under the inner module's own name,
     which is how [Path.Pdot] call sites resolve them (Hoh.Window.spend
     has parent "Window") *)
  ignore (analyze_module_expr { ctx with Vanalyze.modname = sub } env mb.mb_expr);
  env

let analyze_file ~out (f : file) =
  Vanalyze.collect_aliases f.f_structure;
  let ctx = mk_ctx ~modname:f.f_modname ~ref_accum:f.f_ref_accum ~out in
  ignore (analyze_structure ctx Vanalyze.empty_env f.f_structure)

(* Run the whole thing; returns (diags, sups) sorted by position. *)
let run paths =
  Vsummary.reset ();
  let files = List.filter_map load_cmt paths in
  let silent = { Vanalyze.diags = []; sups = []; emit = false } in
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let tables () =
    (sorted Vsummary.table, List.map (fun f -> sorted f.f_ref_accum) files)
  in
  (* The bound turns a table that never settles into an error instead
     of a hang. *)
  let rec settle passes before =
    if passes > 100 then failwith "Verify.run: summaries did not settle";
    List.iter (analyze_file ~out:silent) files;
    let after = tables () in
    if after <> before then settle (passes + 1) after
  in
  settle 1 (tables ());
  let out = { Vanalyze.diags = []; sups = []; emit = true } in
  List.iter (analyze_file ~out) files;
  let cmp_pos (a : Vdiag.t) (b : Vdiag.t) =
    match compare a.Vdiag.file b.Vdiag.file with
    | 0 -> compare (a.Vdiag.line, a.Vdiag.col) (b.Vdiag.line, b.Vdiag.col)
    | c -> c
  in
  (* The same protocol fault often trips two detectors on one line (the
     field read and the builtin that consumed it); one report per
     (file, line, rule) is the useful granularity. *)
  let diags =
    List.sort_uniq
      (fun a b ->
        match compare a.Vdiag.file b.Vdiag.file with
        | 0 -> (
            match compare a.Vdiag.line b.Vdiag.line with
            | 0 -> compare a.Vdiag.rule b.Vdiag.rule
            | c -> c)
        | c -> c)
      (List.sort cmp_pos out.Vanalyze.diags)
  in
  let sups =
    List.sort_uniq compare out.Vanalyze.sups
  in
  (diags, sups)
