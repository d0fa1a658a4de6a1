type series = { label : string; points : (int * float) list }

let xs_of series =
  List.sort_uniq compare
    (List.concat_map (fun s -> List.map fst s.points) series)

let render_table ~title ~xlabel series ppf =
  let xs = xs_of series in
  Format.fprintf ppf "@.== %s ==@." title;
  Format.fprintf ppf "%-10s" xlabel;
  List.iter (fun s -> Format.fprintf ppf " %14s" s.label) series;
  Format.fprintf ppf "@.";
  List.iter
    (fun x ->
      Format.fprintf ppf "%-10d" x;
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some v -> Format.fprintf ppf " %14.0f" v
          | None -> Format.fprintf ppf " %14s" "-")
        series;
      Format.fprintf ppf "@.")
    xs

let print_table ~title ~xlabel series =
  render_table ~title ~xlabel series Format.std_formatter;
  Format.print_flush ()

let save_csv ~dir ~name ~xlabel series =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (name ^ ".csv") in
  let oc = open_out path in
  let xs = xs_of series in
  output_string oc
    (String.concat ","
       (xlabel :: List.map (fun s -> s.label) series)
    ^ "\n");
  List.iter
    (fun x ->
      let row =
        string_of_int x
        :: List.map
             (fun s ->
               match List.assoc_opt x s.points with
               | Some v -> Printf.sprintf "%.1f" v
               | None -> "")
             series
      in
      output_string oc (String.concat "," row ^ "\n"))
    xs;
  close_out oc;
  path
