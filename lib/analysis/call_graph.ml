(* Per-scan function table: every top-level (or nested-module) function
   definition across the parsed files, keyed so call sites can resolve
   through the two qualification styles the repo uses — same-file bare
   names ([scan t bits] inside server.ml) and dotted paths whose last
   two segments name the defining module ([Lw_store.Snapshot.pin] or
   [Snapshot.xor_block_into_masked]). Ambiguous keys resolve to
   nothing: the taint analysis treats unknown callees conservatively,
   so a collision costs precision, never soundness of the report. *)

type def = {
  d_name : string;  (* bare function name *)
  d_file : string;
  d_line : int;
  d_params : string list list;  (* one entry per parameter; tuple params bind several vars *)
  d_labels : string option list;  (* per parameter: [Some l] for [~l]/[?l], [None] if unlabelled *)
  d_body : Parsetree.expression;  (* innermost body after the fun chain *)
}

type t = {
  defs : def list;
  by_qual : (string, def option) Hashtbl.t;  (* "Module.fn" -> def; None = ambiguous *)
  by_file_bare : (string * string, def option) Hashtbl.t;
}

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The labels of a fun chain, walked exactly like [Syntax.uncurry] so the
   list lines up with [d_params]. *)
let rec param_labels (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, _, body) ->
      (match lbl with Asttypes.Nolabel -> None | Labelled l | Optional l -> Some l)
      :: param_labels body
  | Pexp_newtype (_, body) -> param_labels body
  | Pexp_constraint (e, _) -> param_labels e
  | _ -> []

(* Parameter index each call-site argument binds: a labelled argument
   binds the parameter of its label, unlabelled ones fill the unlabelled
   parameters in order. An argument past the last parameter
   (over-application) or with an unknown label gets an index out of the
   parameter range. *)
let arg_positions labels args =
  let n = List.length labels in
  let indexed = List.mapi (fun i l -> (i, l)) labels in
  let rec go pos free = function
    | [] -> []
    | ((lbl : Asttypes.arg_label), _) :: rest ->
        let i, free =
          match (lbl, free) with
          | (Labelled l | Optional l), _ -> (
              match List.find_opt (fun (_, l') -> l' = Some l) indexed with
              | Some (i, _) -> (i, free)
              | None -> (n + pos, free))
          | Nolabel, i :: free' -> (i, free')
          | Nolabel, [] -> (n + pos, [])
        in
        i :: go (pos + 1) free rest
  in
  go 0 (List.filter_map (fun (i, l) -> if l = None then Some i else None) indexed) args

let register tbl key def =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.replace tbl key (Some def)
  | Some _ -> Hashtbl.replace tbl key None

let build (files : (string * Parsetree.structure) list) =
  let defs = ref [] in
  let by_qual = Hashtbl.create 256 in
  let by_file_bare = Hashtbl.create 256 in
  let add_binding path mods (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ } ->
        let params, body = Syntax.uncurry vb.pvb_expr in
        if params <> [] then begin
          let d =
            {
              d_name = name;
              d_file = path;
              d_line = Syntax.line vb.pvb_loc;
              d_params = params;
              d_labels = param_labels vb.pvb_expr;
              d_body = body;
            }
          in
          defs := d :: !defs;
          let owner =
            match mods with m :: _ -> m | [] -> module_of_path path
          in
          register by_qual (owner ^ "." ^ name) d;
          register by_file_bare (path, name) d
        end
    | _ -> ()
  in
  let rec walk path mods (items : Parsetree.structure) =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter (add_binding path mods) vbs
        | Pstr_module mb -> walk_module path mods mb
        | Pstr_recmodule mbs -> List.iter (walk_module path mods) mbs
        | _ -> ())
      items
  and walk_module path mods (mb : Parsetree.module_binding) =
    match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some m, Pmod_structure s -> walk path (m :: mods) s
    | Some m, Pmod_constraint ({ pmod_desc = Pmod_structure s; _ }, _) ->
        walk path (m :: mods) s
    | _ -> ()
  in
  List.iter (fun (path, ast) -> walk path [] ast) files;
  { defs = List.rev !defs; by_qual; by_file_bare }

(* Resolve a call-site name seen in [file]. Bare names only resolve
   within the same file; dotted names resolve by their last two
   segments. *)
let resolve t ~file name =
  let find tbl key = Option.join (Hashtbl.find_opt tbl key) in
  if String.contains name '.' then find t.by_qual (Syntax.last2 name)
  else
    match find t.by_file_bare (file, name) with
    | Some d -> Some d
    | None -> find t.by_qual (module_of_path file ^ "." ^ name)
